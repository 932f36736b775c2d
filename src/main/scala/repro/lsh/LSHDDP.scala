package repro.lsh

import org.apache.spark.sql.SparkSession
import repro.core._
import scala.collection.immutable.ArraySeq
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
    // Bucketize: per table, map compound key -> dense bucket id -> members.
    val bucketOf = Array.ofDim[Int](m, n)
    val buckets  = new Array[Array[Array[Int]]](m)
    var tb = 0
    while (tb < m) {
      val index   = mutable.HashMap.empty[ArraySeq[Int], Int]
      val members = mutable.ArrayBuffer.empty[mutable.ArrayBuilder.ofInt]
      var i = 0
      while (i < n) {
        val key = ArraySeq.unsafeWrapArray(lsh.key(tb, pts.point(i)).toArray)
        val b = index.getOrElseUpdate(key, { members += new mutable.ArrayBuilder.ofInt; members.length - 1 })
        bucketOf(tb)(i) = b
        members(b) += i
        i += 1
      }
      buckets(tb) = members.map(_.result()).toArray
      tb += 1
    }

    val sc    = spark.sparkContext
    val bcPts = sc.broadcast(pts)
    val bcBkt = sc.broadcast(buckets)
    val bcBof = sc.broadcast(bucketOf)
    val groups = Par.ranges(n, sc.defaultParallelism)

    /** Distinct bucket mates of i across the M tables (excluding i). */
    def candidates(p: Pts, bkt: Array[Array[Array[Int]]], bof: Array[Array[Int]], i: Int): Array[Int] = {
      val seen = new mutable.ArrayBuilder.ofInt
      var t = 0
      while (t < bkt.length) {
        val bs = bkt(t)(bof(t)(i))
        var z = 0
        while (z < bs.length) { if (bs(z) != i) seen += bs(z); z += 1 }
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

    val rho = Density.rho(spark, n, groups) { () =>
      val p   = bcPts.value
      val bkt = bcBkt.value
      val bof = bcBof.value
      i => {
        val cand = candidates(p, bkt, bof, i)
        var cnt = 0
        var z = 0
        while (z < cand.length) { if (p.dist2(i, cand(z)) < dcut2) cnt += 1; z += 1 }
        cnt
      }
    }
    val t1 = System.nanoTime()

    // Dependent: nearest denser bucket mate, else exact full scan.
    val bcRho = sc.broadcast(rho)
    val depOut = Par.mapGroups(spark, groups) { idxs =>
      val p     = bcPts.value
      val bkt   = bcBkt.value
      val bof   = bcBof.value
      val rh    = bcRho.value
      val dep   = new Array[Int](idxs.length)
      val delta = new Array[Double](idxs.length)
      var k = 0
      while (k < idxs.length) {
        val i    = idxs(k)
        val cand = candidates(p, bkt, bof, i)
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
        dep(k) = bestId
        delta(k) = if (bestId < 0) Double.PositiveInfinity else math.sqrt(bestD2)
        k += 1
      }
      (dep, delta)
    }
    val depId = Par.scatter(n, groups, depOut.map(_._1))
    val delta = Par.scatter(n, groups, depOut.map(_._2))
    val t2 = System.nanoTime()
    bcPts.destroy(); bcBkt.destroy(); bcBof.destroy(); bcRho.destroy()

    val mem = lsh.paramBytes + m.toLong * n * 8L + // per-table bucket ids + member arrays
      buckets.iterator.map(bs => bs.iterator.map(b => 16L + 4L * b.length).sum).sum
    new DPCResult(rho, depId, delta,
      PhaseTimes((t1 - t0) / 1000000L, (t2 - t1) / 1000000L), mem)
  }
}
