package repro.lsh

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.grid.Grid

/** LSH-DDP (Zhang et al., TKDE 2016) — the state-of-the-art approximation
  * baseline, adapted from MapReduce to a single multicore node as the paper
  * does.
  *
  * P is partitioned into buckets by M compound p-stable LSHes. A point's
  * density is approximated by counting dcut-neighbours among its bucket mates
  * (union over tables); its dependent point is the nearest denser bucket mate,
  * the smallest id among equally near ones. When no denser bucket mate exists
  * the result "does not seem accurate" and a full scan of P computes the exact
  * dependent point, the smallest id among the nearest denser points of P.
  *
  * Both kernels walk a point's M bucket slices of the tables' [[Grid]]s in
  * place, in bucket order, and skip a mate already seen in an earlier table
  * by a per-task stamp array of n ints (`seen(j) == i`), so no candidate list
  * is built or sorted. That array, 4n bytes per task, is not in `memBytes`,
  * as the scans' per-task `Columns` copies are not. Faithfully reproduced
  * quirks: densities are approximate (so dependent choices can be wrong w.r.t.
  * exact densities — the artifact visible in the paper's Fig. 6(c)), and work
  * is split into *static* contiguous ranges, one per core, with no load
  * balancing (the flaw §1 calls out).
  */
object LSHDDP extends DPCAlgorithm {
  override val name = "LSH-DDP"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = Run(spark) { run =>
    val n     = pts.n
    val dcut2 = params.dcut * params.dcut
    val m     = params.lshTables
    val lsh   = new PStableLSH(pts.d, m, params.lshLen, params.lshWidthFactor * params.dcut, seed = 7L)

    // Table t's buckets are the cells of side w of P's projection.
    val grids  = run.rho(Array.tabulate(m)(t => new Grid(lsh.project(t, pts), lsh.w)))
    val groups = Par.ranges(n, spark.sparkContext.defaultParallelism)

    // seen(j) == i: j was visited for point i. A task sees each i once, so
    // the stamps need no reset.
    val rho = run.rho(Density.rho(spark, n, groups) { () =>
      val seen = Array.fill(n)(-1)
      i => {
        seen(i) = i
        var cnt = 0
        var t = 0
        while (t < grids.length) {
          val g   = grids(t)
          val c   = g.cellOf(i)
          val end = g.start(c + 1)
          var z   = g.start(c)
          while (z < end) {
            val j = g.members(z)
            if (seen(j) != i) { seen(j) = i; if (pts.dist2(i, j) < dcut2) cnt += 1 }
            z += 1
          }
          t += 1
        }
        cnt
      }
    })

    // Dependent: nearest denser bucket mate, the smallest id among equally
    // near ones, else exact full scan.
    val (depId, delta) = run.delta {
      val depId = new Array[Int](n)
      val delta = new Array[Double](n)
      Dependents.search(spark, pts, Array.range(0, n), groups, depId, delta) { () =>
        val seen = Array.fill(n)(-1)
        i => {
          seen(i) = i
          val ri     = rho(i)
          var bestId = -1
          var bestD2 = Double.PositiveInfinity
          var t = 0
          while (t < grids.length) {
            val g   = grids(t)
            val c   = g.cellOf(i)
            val end = g.start(c + 1)
            var z   = g.start(c)
            while (z < end) {
              val j = g.members(z)
              if (seen(j) != i) {
                seen(j) = i
                if (rho(j) > ri) {
                  val d2 = pts.dist2(i, j)
                  if (d2 < bestD2 || (d2 == bestD2 && j < bestId)) { bestD2 = d2; bestId = j }
                }
              }
              z += 1
            }
            t += 1
          }
          if (bestId < 0) {
            // fallback: exact scan of the whole P, the first strict minimum
            var j = 0
            while (j < n) {
              if (rho(j) > ri) {
                val d2 = pts.dist2(i, j)
                if (d2 < bestD2) { bestD2 = d2; bestId = j }
              }
              j += 1
            }
          }
          bestId
        }
      }
      (depId, delta)
    }

    // Per table: bucket ids, and a member array (16-byte header) per bucket.
    val mem = lsh.paramBytes + 8L * m * n + grids.iterator.map(g => 16L * g.nCells + 4L * n).sum
    new DPCResult(rho, depId, delta, run.times, mem)
  }
}
