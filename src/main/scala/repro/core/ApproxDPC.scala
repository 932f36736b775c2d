package repro.core

import org.apache.spark.sql.SparkSession
import repro.grid.Grid
import repro.kdtree.KdTree

/** Per-cell output of Approx-DPC's parallel density phase. `rhos` is aligned
  * with the grid's member order of the cell.
  */
final case class CellDensity(cell: Int, rhos: Array[Double], pstar: Int, minRho: Double, nbrs: Array[Int])

/** Approx-DPC (§4).
  *
  * Density phase — *joint range search*: for every grid cell c (side
  * `dcut/sqrt(d)`), one kd-tree range search from the cell center with radius
  * `dcut + max_p dist(center, p)` returns a superset of every member's ball;
  * exact densities are then computed by scanning that result. While doing so
  * the cell learns `p*(c)` (densest member), `min rho`, and `N(c)` (cells
  * holding points within dcut of `p*(c)`). Cells are LPT-assigned to Spark
  * tasks with `cost_range(c) = |P(c)|` (§4.5; the paper's second, post-range
  * re-assignment is collapsed into this one — see DESIGN.md).
  *
  * Dependent phase — O(1) per point via the cell metadata: a non-`p*` member
  * depends on its cell's `p*` at distance `dcut`; a `p*` depends on `p*(c')`
  * of a neighbour cell whose minimum density exceeds its own. Undecided points
  * (the "stem" of the cluster trees) get their *exact* dependent point via
  * [[ExactDependents]] — which is what makes Theorem 4 (identical cluster
  * centers to Ex-DPC) hold.
  */
object ApproxDPC extends DPCAlgorithm {
  override val name = "Approx-DPC"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = {
    val n     = pts.n
    val dcut  = params.dcut
    val dcut2 = dcut * dcut

    val t0   = System.nanoTime()
    val tree = new KdTree(pts).buildAll()
    val grid = new Grid(pts, dcut / math.sqrt(pts.d.toDouble))

    val sc     = spark.sparkContext
    val bcPts  = sc.broadcast(pts)
    val bcTree = sc.broadcast(tree)
    val bcGrid = sc.broadcast(grid)

    val costs = grid.cells.map(_.length.toDouble)
    val cellOut = Par.mapBalanced[CellDensity](spark, costs, sc.defaultParallelism) { cellIdxs =>
      val p = bcPts.value
      val t = bcTree.value
      val g = bcGrid.value
      cellIdxs.iterator.map { c =>
        val members = g.cells(c)
        // Singleton cell: B(p,dcut) needs no enclosing ball — query the point
        // itself (same result set, much smaller radius in high dimensions).
        val (q, radius) =
          if (members.length == 1) (p.point(members(0)), dcut)
          else {
            val cp   = g.center(c)
            var rmax = 0.0
            members.foreach { i =>
              val dd = math.sqrt(p.dist2To(i, cp))
              if (dd > rmax) rmax = dd
            }
            (cp, dcut + rmax + 1e-9)
          }
        val r = t.rangeSearch(q, radius)
        // exact density of every member by scanning the joint result
        val rhos  = new Array[Double](members.length)
        var starK = 0
        var starRho = Double.NegativeInfinity
        var minRho  = Double.PositiveInfinity
        var k = 0
        while (k < members.length) {
          val i = members(k)
          var cnt = 0
          var u = 0
          while (u < r.length) {
            val q = r(u)
            if (q != i && p.dist2(i, q) < dcut2) cnt += 1
            u += 1
          }
          val rho = cnt + Jitter.frac(i)
          rhos(k) = rho
          if (rho > starRho) { starRho = rho; starK = k }
          if (rho < minRho) minRho = rho
          k += 1
        }
        val pstar = members(starK)
        val nbrs  = new java.util.HashSet[Integer]()
        var u = 0
        while (u < r.length) {
          val q = r(u)
          if (g.cellOf(q) != c && p.dist2(pstar, q) < dcut2) nbrs.add(g.cellOf(q))
          u += 1
        }
        val nb = new Array[Int](nbrs.size())
        val it = nbrs.iterator()
        var z = 0
        while (it.hasNext) { nb(z) = it.next().intValue(); z += 1 }
        CellDensity(c, rhos, pstar, minRho, nb)
      }
    }

    val rho     = new Array[Double](n)
    val pstar   = new Array[Int](grid.nCells)
    val minRhoC = new Array[Double](grid.nCells)
    val nbrsC   = new Array[Array[Int]](grid.nCells)
    cellOut.foreach { co =>
      val members = grid.cells(co.cell)
      var k = 0
      while (k < members.length) { rho(members(k)) = co.rhos(k); k += 1 }
      pstar(co.cell) = co.pstar
      minRhoC(co.cell) = co.minRho
      nbrsC(co.cell) = co.nbrs
    }
    bcTree.destroy()
    val t1 = System.nanoTime()

    // --- Approximate dependent points (O(1) per point, driver loop is O(n)). ---
    val depId = new Array[Int](n)
    val delta = new Array[Double](n)
    java.util.Arrays.fill(depId, -1)
    val undecided = new scala.collection.mutable.ArrayBuilder.ofInt
    var c = 0
    while (c < grid.nCells) {
      val members = grid.cells(c)
      val star    = pstar(c)
      var k = 0
      while (k < members.length) {
        val i = members(k)
        if (i != star) { depId(i) = star; delta(i) = dcut }
        k += 1
      }
      // p*(c): neighbour cell whose minimum density beats rho(p*)
      var chosen = -1
      var bestMin = Double.NegativeInfinity
      val nbs = nbrsC(c)
      var z = 0
      while (z < nbs.length) {
        val c2 = nbs(z)
        if (minRhoC(c2) > rho(star) && minRhoC(c2) > bestMin) { bestMin = minRhoC(c2); chosen = c2 }
        z += 1
      }
      if (chosen >= 0) { depId(star) = pstar(chosen); delta(star) = dcut }
      else undecided += star
      c += 1
    }

    // --- Exact dependent points for the undecided (stem) points. ---
    val pPrime = undecided.result()
    val exact = ExactDependents.compute(spark, pts, rho, Array.tabulate(n)(identity), pPrime)
    exact.foreach { case (q, dep, dd) => depId(q) = dep; delta(q) = dd }
    val t2 = System.nanoTime()
    bcPts.destroy(); bcGrid.destroy()

    val mem = tree.memBytes + grid.memBytes +
      nbrsC.iterator.map(a => if (a == null) 0L else 4L * a.length).sum +
      ExactDependents.memBytes(n, pts.d)
    new DPCResult(rho, depId, delta,
      PhaseTimes((t1 - t0) / 1000000L, (t2 - t1) / 1000000L), mem)
  }
}
