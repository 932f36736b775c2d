package repro.core

import org.apache.spark.sql.SparkSession
import repro.kdtree.MaxRhoKdTree

/** The dependent-point phase (§2.1 step 3): for each query point, its
  * dependent point, the nearest point of strictly higher density.
  *
  * A caller supplies the queries, groups of their positions, its output
  * arrays and a kernel factory, which [[Par.mapGroups]] calls once per group
  * to make its per-item kernel: the kernel returns the dependent id of the
  * query at a position, or -1 if it has none, and fixes the tie rule among
  * equidistant candidates. Each group's call writes its own queries' entries.
  */
object Dependents {

  /** Sets `depId(i)` and `delta(i)` of each query `i`: `depId(i)` is the
    * kernel's result at `i`'s position in `queries`, `delta(i)` is
    * `pts.dist(i, depId(i))`, or +inf where `depId(i)` is -1. The entries of
    * points that are not queries are left as they are.
    */
  def search(
      spark: SparkSession, pts: Pts, queries: Array[Int], groups: Array[Array[Int]],
      depId: Array[Int], delta: Array[Double]
  )(kernel: () => Int => Int): Unit =
    Par.mapGroups(spark, groups) { ks =>
      val dep = kernel()
      var u = 0
      while (u < ks.length) {
        val i = queries(ks(u))
        val j = dep(ks(u))
        depId(i) = j
        delta(i) = if (j < 0) Double.PositiveInfinity else pts.dist(i, j)
        u += 1
      }
    }
}

/** O(n^2) dependent-point search (§2.1 step 3): points are sorted by
  * descending density and each point scans all the points ranked above it,
  * keeping the first strict minimum of the distance, so among equidistant
  * denser points the densest wins. Each task copies the points into
  * [[Columns]] in that order, so the points ranked above the one at position
  * `r` are rows `[0, r)`. Shared by Scan, R-tree + Scan and CFSFDP-A (the
  * paper runs CFSFDP-A with Scan's dependent phase).
  */
object ScanDependents {

  /** Returns `(depId, delta)`; the top-density point gets `(-1, +inf)`. */
  def compute(spark: SparkSession, pts: Pts, rho: Array[Double]): (Array[Int], Array[Double]) = {
    val n     = rho.length
    val order = Order.descending(rho)
    // The query at position r scans the r points before it: LPT-balance by r.
    val groups = Par.lpt(Array.tabulate(n)(r => math.max(1.0, r.toDouble)), spark.sparkContext.defaultParallelism)
    val depId  = new Array[Int](n)
    val delta  = new Array[Double](n)
    Dependents.search(spark, pts, order, groups, depId, delta) { () =>
      val c   = new Columns(pts, order)
      val q   = new Array[Double](c.d)
      val acc = new Array[Double](Columns.Chunk)
      r => {
        c.row(r, q)
        val s = c.nearest(q, 0, r, acc)
        if (s < 0) -1 else order(s)
      }
    }
    (depId, delta)
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
  * the driver, a large one fans out over one group per core.
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
    * strictly higher density. Returns `(query, depId, delta)` triples in the
    * order of `queries`; queries with no higher-density universe point get
    * `(-1, +inf)`. `delta` is bit-identical to `pts.dist(query, depId)`; among
    * equidistant candidates the smallest id is chosen. Builds a tree over the
    * universe and runs [[search]] on it.
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
    val depId = new Array[Int](pts.n)
    val delta = new Array[Double](pts.n)
    search(spark, MaxRhoKdTree.build(pts, universe), pts, rho, universe, queries, depId, delta)
    queries.map(q => (q, depId(q), delta(q)))
  }

  /** [[compute]] over `tree`, which indexes at least the universe, such as
    * the one a density phase searched: sets `depId(q)` and `delta(q)` of each
    * query `q`, as [[Dependents.search]] does, and no other entry.
    */
  def search(
      spark: SparkSession,
      tree: MaxRhoKdTree,
      pts: Pts,
      rho: Array[Double],
      universe: Array[Int],
      queries: Array[Int],
      depId: Array[Int],
      delta: Array[Double]
  ): Unit = {
    val dens   = tree.densities(rho, universe)
    val groups = Par.sized(spark, queries.length, queries.length * queryWork(universe.length, pts.d))
    // The dependent id of the query at a position: the smallest id among the
    // nearest points denser than it.
    Dependents.search(spark, pts, queries, groups, depId, delta) { () =>
      val q = new Array[Double](pts.d)
      k => {
        val i = queries(k)
        System.arraycopy(pts.data, i * pts.d, q, 0, pts.d)
        tree.denserNearest(q, rho(i), dens)._1
      }
    }
  }
}
