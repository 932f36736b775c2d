package repro.core

import org.apache.spark.sql.SparkSession
import repro.kdtree.MaxRhoKdTree

/** O(n^2)-style dependent-point search with early termination (§2.1 step 3):
  * points are sorted by descending density and each point scans only the
  * points ranked above it. Shared by Scan, R-tree + Scan and CFSFDP-A (the
  * paper runs CFSFDP-A with Scan's dependent phase).
  */
object ScanDependents {

  /** Returns `(depId, delta)`; the top-density point gets `(-1, +inf)`. */
  def compute(spark: SparkSession, pts: Pts, rho: Array[Double]): (Array[Int], Array[Double]) = {
    val n     = pts.n
    val order = Array.tabulate(n)(identity).sortBy(i => -rho(i))
    val rank  = new Array[Int](n)
    var r = 0
    while (r < n) { rank(order(r)) = r; r += 1 }

    val sc      = spark.sparkContext
    val bcPts   = sc.broadcast(pts)
    val bcOrder = sc.broadcast(order)
    val bcRank  = sc.broadcast(rank)

    import spark.implicits._
    // Cost of point i is its rank (prefix length scanned) — LPT-balance it.
    val costs = Array.tabulate(n)(i => math.max(1.0, rank(i).toDouble))
    val out = Par.mapBalanced[(Int, Int, Double)](spark, costs, spark.sparkContext.defaultParallelism) { idxs =>
      val p  = bcPts.value
      val od = bcOrder.value
      val rk = bcRank.value
      idxs.iterator.map { i =>
        val myRank = rk(i)
        var bestId = -1
        var bestD2 = Double.PositiveInfinity
        var s = 0
        while (s < myRank) {
          val j  = od(s)
          val d2 = p.dist2(i, j)
          if (d2 < bestD2) { bestD2 = d2; bestId = j }
          s += 1
        }
        (i, bestId, if (bestId < 0) Double.PositiveInfinity else math.sqrt(bestD2))
      }
    }
    val depId = new Array[Int](n)
    val delta = new Array[Double](n)
    out.foreach { case (i, q, dd) => depId(i) = q; delta(i) = dd }
    bcPts.destroy(); bcOrder.destroy(); bcRank.destroy()
    (depId, delta)
  }
}

/** The exact dependent-point search of Approx-DPC (§4.3), also used by
  * S-Approx-DPC's fallback (universe = picked points).
  *
  * One [[MaxRhoKdTree]] over the universe (a kd-tree whose nodes store their
  * subtree's largest density) answers each query independently with a pruned
  * nearest-neighbour search, so the queries fan out over [[Par]] with no
  * per-query cost model. This replaces the paper's `s` density-sorted subset
  * trees of Equation (2) and their `cost_dep` balancing; see DESIGN.md §3.
  */
object ExactDependents {

  /** Smallest s with n/s <= (s-1) * (n/s)^{1-1/d} (Equation 2): the paper's
    * subset count, no longer used by [[compute]] but still recorded by the
    * benchmark.
    */
  def chooseS(n: Int, d: Int): Int = {
    var s = 2
    while (s < 64 && n.toDouble / s > (s - 1).toDouble * math.pow(n.toDouble / s, 1.0 - 1.0 / d)) s += 1
    s
  }

  /** For each query (must be in `universe`), the nearest universe point with
    * strictly higher density. Returns `(query, depId, delta)` triples; queries
    * with no higher-density universe point get `(-1, +inf)`. `delta` is
    * bit-identical to `pts.dist(query, depId)`; among equidistant candidates
    * the smallest id is chosen.
    */
  def compute(
      spark: SparkSession,
      pts: Pts,
      rho: Array[Double],
      universe: Array[Int],
      queries: Array[Int]
  ): Array[(Int, Int, Double)] = {
    if (universe.isEmpty || queries.isEmpty)
      return queries.map(q => (q, -1, Double.PositiveInfinity))

    val d    = pts.d
    val tree = MaxRhoKdTree.build(pts, rho, universe)
    // The tasks read only the tree and the queries' own coordinates and densities.
    val qx   = new Array[Double](queries.length * d)
    var k = 0
    while (k < queries.length) { System.arraycopy(pts.data, queries(k) * d, qx, k * d, d); k += 1 }
    val qRho = queries.map(rho)

    val sc     = spark.sparkContext
    val bcTree = sc.broadcast(tree)
    val bcQ    = sc.broadcast((qx, qRho))

    import spark.implicits._
    // A query costs microseconds, so one group per core: more tasks would
    // only add Spark's per-task overhead.
    val out = Par.mapIndexed[(Int, Int, Double)](spark, queries.length, oversub = 1) { qis =>
      val t        = bcTree.value
      val (xs, rq) = bcQ.value
      val q        = new Array[Double](d)
      qis.iterator.map { qi =>
        System.arraycopy(xs, qi * d, q, 0, d)
        val (dep, dist) = t.denserNearest(q, rq(qi))
        (qi, dep, dist)
      }
    }
    bcTree.destroy(); bcQ.destroy()
    out.map { case (qi, dep, dist) => (queries(qi), dep, dist) }
  }

  /** Modelled footprint of the search's kd-tree over `m` points in `R^d`. */
  def memBytes(m: Int, d: Int): Long = MaxRhoKdTree.memBytes(m, d)
}
