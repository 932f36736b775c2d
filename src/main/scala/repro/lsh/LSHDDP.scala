package repro.lsh

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.grid.Grid
import scala.collection.mutable

/** LSH-DDP (Zhang et al., TKDE 2016) — the state-of-the-art approximation
  * baseline, adapted from MapReduce to a single multicore node as the paper
  * does.
  *
  * P is partitioned into buckets by M compound p-stable LSHes. A point's
  * density is approximated by counting dcut-neighbours among its bucket mates
  * (union over tables); its dependent point is the nearest denser bucket mate.
  * When no denser bucket mate exists the result "does not seem accurate" and a
  * full scan of P computes the exact dependent point. Faithfully reproduced
  * quirks: densities are approximate (so dependent choices can be wrong w.r.t.
  * exact densities — the artifact visible in the paper's Fig. 6(c)), and work
  * is split into *static* contiguous ranges, one per core, with no load
  * balancing (the flaw §1 calls out).
  */
object LSHDDP extends DPCAlgorithm {
  override val name = "LSH-DDP"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = {
    val n     = pts.n
    val dcut2 = params.dcut * params.dcut
    val m     = params.lshTables
    val lsh   = new PStableLSH(pts.d, m, params.lshLen, params.lshWidthFactor * params.dcut, seed = 7L)

    val t0 = System.nanoTime()
    // Table t's buckets are the cells of side w of P's projection.
    val grids = Array.tabulate(m)(t => new Grid(lsh.project(t, pts), lsh.w))

    val sc      = spark.sparkContext
    val bcPts   = sc.broadcast(pts)
    val bcGrids = sc.broadcast(grids)
    val groups  = Par.ranges(n, sc.defaultParallelism)

    /** Distinct bucket mates of i across the M tables (excluding i). */
    def candidates(grids: Array[Grid], i: Int): Array[Int] = {
      val seen = new mutable.ArrayBuilder.ofInt
      var t = 0
      while (t < grids.length) {
        val g = grids(t)
        val c = g.cellOf(i)
        var z = g.start(c)
        while (z < g.start(c + 1)) { if (g.members(z) != i) seen += g.members(z); z += 1 }
        t += 1
      }
      val all = seen.result()
      java.util.Arrays.sort(all)
      // dedupe in place
      var w = 0
      var r = 0
      while (r < all.length) {
        if (w == 0 || all(r) != all(w - 1)) { all(w) = all(r); w += 1 }
        r += 1
      }
      java.util.Arrays.copyOf(all, w)
    }

    try {
      val rho = Density.rho(spark, n, groups) { () =>
        val p     = bcPts.value
        val grids = bcGrids.value
        i => {
          val cand = candidates(grids, i)
          var cnt = 0
          var z = 0
          while (z < cand.length) { if (p.dist2(i, cand(z)) < dcut2) cnt += 1; z += 1 }
          cnt
        }
      }
      val t1 = System.nanoTime()

      // Dependent: nearest denser bucket mate, else exact full scan.
      val bcRho = sc.broadcast(rho)
      val (depId, delta) = try Dependents.search(spark, pts, Array.range(0, n), groups) { () =>
        val p     = bcPts.value
        val grids = bcGrids.value
        val rh    = bcRho.value
        i => {
          val cand   = candidates(grids, i)
          var bestId = -1
          var bestD2 = Double.PositiveInfinity
          var z = 0
          while (z < cand.length) {
            val j = cand(z)
            if (rh(j) > rh(i)) {
              val d2 = p.dist2(i, j)
              if (d2 < bestD2) { bestD2 = d2; bestId = j }
            }
            z += 1
          }
          if (bestId < 0) {
            // fallback: exact scan of the whole P
            var j = 0
            while (j < p.n) {
              if (rh(j) > rh(i)) {
                val d2 = p.dist2(i, j)
                if (d2 < bestD2) { bestD2 = d2; bestId = j }
              }
              j += 1
            }
          }
          bestId
        }
      } finally bcRho.destroy()
      val t2 = System.nanoTime()

      // Per table: bucket ids, and a member array (16-byte header) per bucket.
      val mem = lsh.paramBytes + 8L * m * n + grids.iterator.map(g => 16L * g.nCells + 4L * n).sum
      new DPCResult(rho, depId, delta, PhaseTimes.between(t0, t1, t2), mem)
    } finally {
      bcPts.destroy(); bcGrids.destroy()
    }
  }
}
