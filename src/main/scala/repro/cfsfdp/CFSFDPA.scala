package repro.cfsfdp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.kmeans.KMeans

/** CFSFDP-A (Bai et al., Pattern Recognition 2017) — the state-of-the-art
  * *exact* baseline.
  *
  * Preprocessing selects k = ⌈√n⌉ (at least 2, at most n) pivot points as
  * k-means centroids and materializes the full n x k point-to-pivot distance
  * matrix (the memory hog the paper's Table 7 shows) plus, per pivot, its
  * member list sorted by pivot distance.
  *
  * Density of p_i: for every pivot group, the triangle inequality
  * `dist(p_i,p_j) >= |dist(p_i,c_m) - dist(p_j,c_m)|` prunes members whose
  * pivot distance lies outside `dist(p_i,c_m) +- dcut` (binary search on the
  * sorted list); survivors are verified exactly. With noisy data the k-means
  * pivots filter poorly and most members survive — the weakness §2.3 notes.
  *
  * Dependent points: Scan's sorted-scan approach, exactly as the paper runs it
  * ("we used the approach of Scan for computing dependent distances in
  * CFSFDP-A").
  */
object CFSFDPA extends DPCAlgorithm {
  override val name = "CFSFDP-A"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = {
    val n     = pts.n
    val dcut  = params.dcut
    val dcut2 = dcut * dcut
    val k     = math.max(2, math.min(n, math.ceil(math.sqrt(n.toDouble)).toInt))

    val t0 = System.nanoTime()
    val km = KMeans.fit(pts, k, iters = 5)

    // n x k pivot-distance matrix (flat) + per-pivot sorted member lists.
    val pivDist = new Array[Double](n * k)
    var i = 0
    while (i < n) {
      var m = 0
      while (m < k) { pivDist(i * k + m) = math.sqrt(pts.dist2To(i, km.centroids(m))); m += 1 }
      i += 1
    }
    val groups = Array.fill(k)(new scala.collection.mutable.ArrayBuilder.ofInt)
    i = 0
    while (i < n) { groups(km.assign(i)) += i; i += 1 }
    val sortedMembers = new Array[Array[Int]](k)   // member ids, ascending pivot distance
    val sortedDists   = new Array[Array[Double]](k)
    var m = 0
    while (m < k) {
      val g = groups(m).result()
      val byDist = g.sortBy(j => pivDist(j * k + m))
      sortedMembers(m) = byDist
      sortedDists(m) = byDist.map(j => pivDist(j * k + m))
      m += 1
    }

    val sc    = spark.sparkContext
    val bcPts = sc.broadcast(pts)
    val bcPD  = sc.broadcast(pivDist)
    val bcSM  = sc.broadcast(sortedMembers)
    val bcSD  = sc.broadcast(sortedDists)

    val rho = Density.rho(spark, n, Par.indexed(spark, n)) { () =>
      val p  = bcPts.value
      val pd = bcPD.value
      val sm = bcSM.value
      val sd = bcSD.value
      qi => {
        var cnt = 0
        var mm = 0
        while (mm < sm.length) {
          val dPiv = pd(qi * sm.length + mm)
          val ds   = sd(mm)
          val ms   = sm(mm)
          // members with pivot distance in (dPiv - dcut, dPiv + dcut)
          var lo = java.util.Arrays.binarySearch(ds, dPiv - dcut)
          if (lo < 0) lo = -lo - 1
          var z = lo
          while (z < ds.length && ds(z) < dPiv + dcut) {
            val j = ms(z)
            if (j != qi && p.dist2(qi, j) < dcut2) cnt += 1
            z += 1
          }
          mm += 1
        }
        cnt
      }
    }
    val t1 = System.nanoTime()

    val (depId, delta) = ScanDependents.compute(spark, bcPts, rho)
    val t2 = System.nanoTime()
    bcPts.destroy(); bcPD.destroy(); bcSM.destroy(); bcSD.destroy()

    val mem = 8L * n * k +                       // pivot-distance matrix
      (8L + 4L) * n +                            // sorted lists (dist + id per point)
      8L * k * pts.d                             // centroids
    new DPCResult(rho, depId, delta,
      PhaseTimes((t1 - t0) / 1000000L, (t2 - t1) / 1000000L), mem)
  }
}
