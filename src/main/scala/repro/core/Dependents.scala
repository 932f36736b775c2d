package repro.core

import org.apache.spark.broadcast.Broadcast
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
    val bcPts = spark.sparkContext.broadcast(pts)
    try compute(spark, bcPts, rho) finally bcPts.destroy()
  }

  /** [[compute]] over a point set the caller has already broadcast, such as
    * the one its density phase read, so the points are shipped once per run.
    */
  def compute(spark: SparkSession, bcPts: Broadcast[Pts], rho: Array[Double]): (Array[Int], Array[Double]) = {
    val n     = rho.length
    val order = Order.descending(rho)
    val rank  = new Array[Int](n)
    var r = 0
    while (r < n) { rank(order(r)) = r; r += 1 }

    val sc      = spark.sparkContext
    val bcOrder = sc.broadcast(order)
    val bcRank  = sc.broadcast(rank)

    // Cost of point i is its rank (prefix length scanned) — LPT-balance it.
    val costs  = Array.tabulate(n)(i => math.max(1.0, rank(i).toDouble))
    val groups = Par.lpt(costs, sc.defaultParallelism)
    val out = Par.mapGroups(spark, groups) { idxs =>
      val p     = bcPts.value
      val od    = bcOrder.value
      val rk    = bcRank.value
      val dep   = new Array[Int](idxs.length)
      val delta = new Array[Double](idxs.length)
      var k = 0
      while (k < idxs.length) {
        val i      = idxs(k)
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
        dep(k) = bestId
        delta(k) = if (bestId < 0) Double.PositiveInfinity else math.sqrt(bestD2)
        k += 1
      }
      (dep, delta)
    }
    bcOrder.destroy(); bcRank.destroy()
    (Par.scatter(n, groups, out.map(_._1)), Par.scatter(n, groups, out.map(_._2)))
  }
}

/** The exact dependent-point search of Approx-DPC (§4.3), also used by
  * S-Approx-DPC's fallback (universe = picked points).
  *
  * One [[MaxRhoKdTree]] (a kd-tree whose nodes store their subtree's largest
  * density once densities are attached) answers each query independently with
  * a pruned nearest-neighbour search, so the queries need no per-query cost
  * model. This replaces the paper's `s` density-sorted subset trees of
  * Equation (2) and their `cost_dep` balancing; see DESIGN.md §3. The queries
  * are sized by [[Par.sized]] from [[queryWork]]: a small query set runs on
  * the driver with nothing broadcast, a large one fans out over one group per
  * core.
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

  /** Estimated steps (distance evaluations, the unit of [[Par.FanOutWork]])
    * of one query over a universe of `u` points in `R^d`: a root-to-leaf
    * descent of `log2 u` levels with the `2^d` neighbouring boxes of a
    * nearest-neighbour search, and never more than the whole universe.
    */
  def queryWork(u: Int, d: Int): Double =
    math.min(u.toDouble, math.pow(2.0, d) * math.log(u + 1.0) / math.log(2.0))

  /** For each query (must be in `universe`), the nearest universe point with
    * strictly higher density. Returns `(query, depId, delta)` triples; queries
    * with no higher-density universe point get `(-1, +inf)`. `delta` is
    * bit-identical to `pts.dist(query, depId)`; among equidistant candidates
    * the smallest id is chosen. The tree over the universe is broadcast only
    * when the queries fan out.
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
    val (dep, delta) = search(spark, MaxRhoKdTree.build(pts, universe), None, pts, rho, universe, queries)
    Array.tabulate(queries.length)(k => (queries(k), dep(k), delta(k)))
  }

  /** [[compute]] over an already broadcast tree that indexes at least the
    * universe, such as the one a density phase searched: only the densities
    * and the queries are broadcast, and only when the queries fan out.
    * Returns `(depId, delta)` of each query, in the order of `queries`.
    */
  def compute(
      spark: SparkSession,
      tree: Broadcast[MaxRhoKdTree],
      pts: Pts,
      rho: Array[Double],
      universe: Array[Int],
      queries: Array[Int]
  ): (Array[Int], Array[Double]) = {
    val m = queries.length
    if (universe.isEmpty || m == 0)
      return (Array.fill(m)(-1), Array.fill(m)(Double.PositiveInfinity))
    search(spark, tree.value, Some(tree), pts, rho, universe, queries)
  }

  /** Both overloads: `tree` indexes at least the universe, and `shipped` is
    * its broadcast if the caller made one.
    */
  private def search(
      spark: SparkSession,
      tree: MaxRhoKdTree,
      shipped: Option[Broadcast[MaxRhoKdTree]],
      pts: Pts,
      rho: Array[Double],
      universe: Array[Int],
      queries: Array[Int]
  ): (Array[Int], Array[Double]) = {
    val m    = queries.length
    val d    = pts.d
    val dens = tree.densities(rho, universe)
    // The search reads only the tree, its densities and the queries' own
    // coordinates and densities.
    val qx   = new Array[Double](m * d)
    var k = 0
    while (k < m) { System.arraycopy(pts.data, queries(k) * d, qx, k * d, d); k += 1 }
    val qRho = queries.map(rho)

    val groups = Par.sized(spark, m, m * queryWork(universe.length, d))
    val out =
      if (Par.onDriver(groups)) Par.mapGroups(spark, groups)(nearestDenser(tree, dens, qx, qRho, d, _))
      else {
        val sc     = spark.sparkContext
        val bcTree = shipped.getOrElse(sc.broadcast(tree))
        val bcDens = sc.broadcast(dens)
        val bcQ    = sc.broadcast((qx, qRho))
        try Par.mapGroups(spark, groups) { qis =>
          val (xs, rq) = bcQ.value
          nearestDenser(bcTree.value, bcDens.value, xs, rq, d, qis)
        } finally {
          bcDens.destroy(); bcQ.destroy()
          if (shipped.isEmpty) bcTree.destroy()
        }
      }
    (Par.scatter(m, groups, out.map(_._1)), Par.scatter(m, groups, out.map(_._2)))
  }

  /** `(depId, delta)` of the queries at positions `qis` of `xs` (row-major,
    * `d` per query) and `rq`, in the order of `qis`.
    */
  private def nearestDenser(
      t: MaxRhoKdTree,
      dens: MaxRhoKdTree.Densities,
      xs: Array[Double],
      rq: Array[Double],
      d: Int,
      qis: Array[Int]
  ): (Array[Int], Array[Double]) = {
    val q    = new Array[Double](d)
    val dep  = new Array[Int](qis.length)
    val dist = new Array[Double](qis.length)
    var k = 0
    while (k < qis.length) {
      val qi = qis(k)
      System.arraycopy(xs, qi * d, q, 0, d)
      val (j, dd) = t.denserNearest(q, rq(qi), dens)
      dep(k) = j
      dist(k) = dd
      k += 1
    }
    (dep, dist)
  }

  /** Modelled footprint of the search's kd-tree over `m` points in `R^d`. */
  def memBytes(m: Int, d: Int): Long = MaxRhoKdTree.memBytes(m, d)
}
