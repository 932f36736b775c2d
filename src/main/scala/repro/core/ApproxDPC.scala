package repro.core

import org.apache.spark.sql.SparkSession
import repro.grid.Grid
import repro.kdtree.MaxRhoKdTree
import scala.collection.mutable

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
  *
  * Both phases query one static [[MaxRhoKdTree]], built and broadcast once;
  * the dependent phase broadcasts only the densities it attaches. Each
  * density task returns one flat [[CellBlock]] for its group of cells.
  */
object ApproxDPC extends DPCAlgorithm {
  override val name = "Approx-DPC"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = {
    val n     = pts.n
    val dcut  = params.dcut
    val dcut2 = dcut * dcut

    val t0   = System.nanoTime()
    val tree = MaxRhoKdTree.build(pts, Array.range(0, n))
    val grid = new Grid(pts, dcut / math.sqrt(pts.d.toDouble))

    val sc     = spark.sparkContext
    val bcPts  = sc.broadcast(pts)
    val bcTree = sc.broadcast(tree)
    val bcGrid = sc.broadcast(grid)

    val groups = Par.lpt(Array.tabulate(grid.nCells)(grid.size(_).toDouble), sc.defaultParallelism)
    val blocks = Par.mapGroups(spark, groups) { cellIdxs =>
      val p      = bcPts.value
      val t      = bcTree.value
      val g      = bcGrid.value
      val seen   = new Array[Int](g.nCells)
      java.util.Arrays.fill(seen, -1)
      val rhos   = new Array[Double](cellIdxs.iterator.map(g.size).sum)
      val pstar  = new Array[Int](cellIdxs.length)
      val minRho = new Array[Double](cellIdxs.length)
      val nbrOff = new Array[Int](cellIdxs.length + 1)
      val nbrs   = new mutable.ArrayBuilder.ofInt
      var pos = 0
      var k   = 0
      while (k < cellIdxs.length) {
        val c  = cellIdxs(k)
        val lo = g.start(c)
        val m  = g.size(c)
        if (m == 1) {
          // Singleton cell: B(p,dcut) needs no enclosing ball — query the point
          // itself (same result set, much smaller radius in high dimensions).
          val i = g.members(lo)
          val r = t.rangeSearch(p.point(i), dcut)
          val rho = CellPass.scan(p, g.cellOf, i, c, r, dcut2, seen, nbrs) + Jitter.frac(i)
          rhos(pos) = rho; pstar(k) = i; minRho(k) = rho
        } else {
          val cp   = g.center(c)
          var rmax = 0.0
          var s = lo
          while (s < lo + m) { rmax = math.max(rmax, math.sqrt(p.dist2To(g.members(s), cp))); s += 1 }
          val r = t.rangeSearch(cp, dcut + rmax + 1e-9)
          // exact density of every member by scanning the joint result
          var star    = -1
          var starRho = Double.NegativeInfinity
          var min     = Double.PositiveInfinity
          s = lo
          while (s < lo + m) {
            val i   = g.members(s)
            val rho = CellPass.scan(p, g.cellOf, i, c, r, dcut2, seen, null) + Jitter.frac(i)
            rhos(pos + s - lo) = rho
            if (rho > starRho) { starRho = rho; star = i }
            if (rho < min) min = rho
            s += 1
          }
          CellPass.scan(p, g.cellOf, star, c, r, dcut2, seen, nbrs)
          pstar(k) = star; minRho(k) = min
        }
        pos += m
        nbrOff(k + 1) = nbrs.length
        k += 1
      }
      new CellBlock(rhos, pstar, minRho, nbrOff, nbrs.result())
    }

    val rho     = new Array[Double](n)
    val pstar   = new Array[Int](grid.nCells)
    val minRhoC = new Array[Double](grid.nCells)
    var g = 0
    while (g < groups.length) {
      val b   = blocks(g)
      var pos = 0
      var k   = 0
      while (k < groups(g).length) {
        val c = groups(g)(k)
        var s = grid.start(c)
        while (s < grid.start(c + 1)) { rho(grid.members(s)) = b.rhos(pos); pos += 1; s += 1 }
        pstar(c) = b.pstar(k)
        minRhoC(c) = b.minRho(k)
        k += 1
      }
      g += 1
    }
    val (nbrOff, nbrs) = CellPass.neighbours(grid.nCells, groups, blocks)
    val t1 = System.nanoTime()

    // --- Approximate dependent points (O(1) per point, driver loop is O(n)). ---
    val depId = new Array[Int](n)
    val delta = new Array[Double](n)
    java.util.Arrays.fill(depId, -1)
    val undecided = new scala.collection.mutable.ArrayBuilder.ofInt
    var c = 0
    while (c < grid.nCells) {
      val star = pstar(c)
      var s = grid.start(c)
      while (s < grid.start(c + 1)) {
        val i = grid.members(s)
        if (i != star) { depId(i) = star; delta(i) = dcut }
        s += 1
      }
      // p*(c): neighbour cell whose minimum density beats rho(p*)
      var chosen = -1
      var bestMin = Double.NegativeInfinity
      var z = nbrOff(c)
      while (z < nbrOff(c + 1)) {
        val c2 = nbrs(z)
        if (minRhoC(c2) > rho(star) && minRhoC(c2) > bestMin) { bestMin = minRhoC(c2); chosen = c2 }
        z += 1
      }
      if (chosen >= 0) { depId(star) = pstar(chosen); delta(star) = dcut }
      else undecided += star
      c += 1
    }

    // --- Exact dependent points for the undecided (stem) points. ---
    val pPrime = undecided.result()
    val (exDep, exDelta) = ExactDependents.compute(spark, bcTree, pts, rho, Array.range(0, n), pPrime)
    var k = 0
    while (k < pPrime.length) { depId(pPrime(k)) = exDep(k); delta(pPrime(k)) = exDelta(k); k += 1 }
    val t2 = System.nanoTime()
    bcPts.destroy(); bcTree.destroy(); bcGrid.destroy()

    val mem = MaxRhoKdTree.memBytes(n, pts.d) + grid.memBytes + 4L * (nbrOff.length + nbrs.length)
    new DPCResult(rho, depId, delta,
      PhaseTimes((t1 - t0) / 1000000L, (t2 - t1) / 1000000L), mem)
  }
}
