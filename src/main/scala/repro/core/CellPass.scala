package repro.core

import repro.grid.Grid
import repro.kdtree.MaxRhoKdTree
import scala.collection.mutable

/** The grid pass of both grid algorithms: Approx-DPC (§4) and S-Approx-DPC
  * (§5), which is Approx-DPC on a coarser grid where one picked point per cell
  * does the work.
  *
  * Density phase — for every cell c, one range search on a static
  * [[MaxRhoKdTree]] yields the exact densities of the cell's members that get
  * one (all of them, or the first, i.e. the smallest id), its densest such
  * member `p*(c)`, their minimum density, and `N(c)`: the cells holding points
  * strictly within `dcut` of `p*(c)`. A cell where one point gets a density
  * searches the ball around that point; otherwise the cell searches once from
  * its center with radius `dcut + max_p dist(center, p)`, a superset of every
  * member's ball. Cells are LPT-assigned to Spark tasks with `cost_range(c) =
  * |P(c)|` (§4.5; the paper's second, post-range re-assignment is collapsed
  * into this one — see DESIGN.md). Each task writes its cells' densities,
  * `p*(c)`, minimum density and `|N(c)|` in place and returns only their
  * `N(c)` lists, which the driver packs into one CSR array.
  *
  * Approximate dependents — O(1) per point via the cell metadata: see
  * [[dependents]]. The representatives left undecided are the caller's.
  */
object CellPass {

  /** What the pass leaves its caller.
    *
    * @param tree      the static tree over all points, which the caller's
    *                  exact dependent search may search again
    * @param rho       per point its exact density, or NaN if it got none
    * @param pstar     per cell, `p*(c)`
    * @param depId     approximate dependents; -1 for the undecided
    * @param delta     their distances; 0 for the undecided
    * @param undecided the representatives with no denser neighbour cell, in
    *                  cell order
    * @param memBytes  modelled footprint of the tree, the grid and `N(c)`
    */
  final class Result(
      val tree: MaxRhoKdTree,
      val rho: Array[Double],
      val pstar: Array[Int],
      val depId: Array[Int],
      val delta: Array[Double],
      val undecided: Array[Int],
      val memBytes: Long
  )

  /** Runs the pass over `pts` on the grid of side `side` in `run`: the tree,
    * the grid and the density job are timed as `run`'s rho phase, the
    * approximate dependents as its delta phase. With `firstOnly`, only the
    * first member of each cell gets a density; otherwise all of them do.
    */
  def run(
      run: Run, pts: Pts, side: Double, dcut: Double, firstOnly: Boolean,
      memberDelta: Double, starDelta: Double
  ): Result = {
    val (tree, grid, rho, pstar, minRho, nbrOff, nbrs) = run.rho {
      val tree   = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
      val grid   = new Grid(pts, side)
      val rho    = Array.fill(pts.n)(Double.NaN)
      val pstar  = new Array[Int](grid.nCells)
      val minRho = new Array[Double](grid.nCells)
      val nbrOff = new Array[Int](grid.nCells + 1) // CSR N(c): |N(c)| at c + 1 first, then offsets
      val groups = Par.lpt(Array.tabulate(grid.nCells)(grid.size(_).toDouble), run.spark.sparkContext.defaultParallelism)
      val lists  = Par.mapGroups(run.spark, groups)(densities(pts, tree, grid, dcut, firstOnly, rho, pstar, minRho, nbrOff, _))

      var c = 0
      while (c < grid.nCells) { nbrOff(c + 1) += nbrOff(c); c += 1 }
      val nbrs = new Array[Int](nbrOff(grid.nCells))
      var g = 0
      while (g < groups.length) {
        var pos = 0
        var k   = 0
        while (k < groups(g).length) {
          val cell = groups(g)(k)
          val len  = nbrOff(cell + 1) - nbrOff(cell)
          System.arraycopy(lists(g), pos, nbrs, nbrOff(cell), len)
          pos += len
          k += 1
        }
        g += 1
      }
      (tree, grid, rho, pstar, minRho, nbrOff, nbrs)
    }

    val (depId, delta, undecided) = run.delta(dependents(grid, rho, pstar, minRho, nbrOff, nbrs, memberDelta, starDelta))
    val mem = MaxRhoKdTree.memBytes(pts.n, pts.d) + grid.memBytes + 4L * (nbrOff.length + nbrs.length)
    new Result(tree, rho, pstar, depId, delta, undecided, mem)
  }

  /** Number of members of cell `c` that get a density. */
  private def rated(g: Grid, c: Int, firstOnly: Boolean): Int = if (firstOnly) 1 else g.size(c)

  /** The density task of one group of cells `cellIdxs`: writes each cell's
    * rated members' `rho`, its `pstar` and `minRho`, and `|N(c)|` at
    * `nbrOff(c + 1)`, and returns the cells' `N(c)` lists, concatenated in
    * the order of `cellIdxs`.
    */
  private def densities(
      p: Pts, t: MaxRhoKdTree, g: Grid, dcut: Double, firstOnly: Boolean,
      rho: Array[Double], pstar: Array[Int], minRho: Array[Double], nbrOff: Array[Int], cellIdxs: Array[Int]
  ): Array[Int] = {
    val dcut2 = dcut * dcut
    val seen  = new Array[Int](g.nCells)
    java.util.Arrays.fill(seen, -1)
    val nbrs  = new mutable.ArrayBuilder.ofInt
    var k = 0
    while (k < cellIdxs.length) {
      val c     = cellIdxs(k)
      val lo    = g.start(c)
      val m     = rated(g, c, firstOnly)
      val start = nbrs.length
      if (m == 1) {
        // One point: B(p,dcut) needs no enclosing ball — query the point
        // itself (same result set, much smaller radius in high dimensions).
        val i  = g.members(lo)
        val r  = t.rangeSearch(p.point(i), dcut) // inclusive superset; the scan is strict
        val ri = scan(p, g.cellOf, i, c, r, dcut2, seen, nbrs) + Jitter.frac(i)
        rho(i) = ri; pstar(c) = i; minRho(c) = ri
      } else {
        val cp   = g.center(c)
        var rmax = 0.0
        var s = lo
        while (s < lo + m) { rmax = math.max(rmax, math.sqrt(p.dist2To(g.members(s), cp))); s += 1 }
        // A relative pad: an absolute one is below one ulp of a large radius.
        val r = t.rangeSearch(cp, (dcut + rmax) * (1 + 1e-9))
        // exact density of every member by scanning the joint result
        var star    = -1
        var starRho = Double.NegativeInfinity
        var min     = Double.PositiveInfinity
        s = lo
        while (s < lo + m) {
          val i  = g.members(s)
          val ri = scan(p, g.cellOf, i, c, r, dcut2, seen, null) + Jitter.frac(i)
          rho(i) = ri
          if (ri > starRho) { starRho = ri; star = i }
          if (ri < min) min = ri
          s += 1
        }
        scan(p, g.cellOf, star, c, r, dcut2, seen, nbrs)
        pstar(c) = star; minRho(c) = min
      }
      nbrOff(c + 1) = nbrs.length - start
      k += 1
    }
    nbrs.result()
  }

  /** The approximate dependents of every point of `grid`: a member other than
    * `p*(c)` depends on `p*(c)` at `memberDelta`; `p*(c)` depends on `p*(c')`
    * of the neighbour cell c' in `N(c)` with the largest minimum density above
    * `rho(p*(c))` (equal minima: the first in `N(c)` order) at `starDelta`.
    * Returns `(depId, delta, undecided)`: the `p*(c)` with no such neighbour
    * are undecided, in cell order, with `(-1, 0)`.
    */
  def dependents(
      grid: Grid, rho: Array[Double], pstar: Array[Int], minRho: Array[Double],
      nbrOff: Array[Int], nbrs: Array[Int], memberDelta: Double, starDelta: Double
  ): (Array[Int], Array[Double], Array[Int]) = {
    val depId = new Array[Int](rho.length)
    val delta = new Array[Double](rho.length)
    java.util.Arrays.fill(depId, -1)
    val undecided = new mutable.ArrayBuilder.ofInt
    var c = 0
    while (c < grid.nCells) {
      val star = pstar(c)
      var s = grid.start(c)
      while (s < grid.start(c + 1)) {
        val i = grid.members(s)
        if (i != star) { depId(i) = star; delta(i) = memberDelta }
        s += 1
      }
      var chosen  = -1
      var bestMin = Double.NegativeInfinity
      var z = nbrOff(c)
      while (z < nbrOff(c + 1)) {
        val c2 = nbrs(z)
        if (minRho(c2) > rho(star) && minRho(c2) > bestMin) { bestMin = minRho(c2); chosen = c2 }
        z += 1
      }
      if (chosen >= 0) { depId(star) = pstar(chosen); delta(star) = starDelta }
      else undecided += star
      c += 1
    }
    (depId, delta, undecided.result())
  }

  /** Counts the points of `r` other than `i` strictly within `dcut` of point
    * `i` (`dcut2 = dcut * dcut`). When `nbrs` is not null, also appends every
    * cell other than `c` that holds such a point, once: `seen(c2) == c` marks
    * cell `c2` as added for `c`, so one `seen` array serves a task's cells.
    */
  def scan(
      p: Pts, cellOf: Array[Int], i: Int, c: Int, r: Array[Int], dcut2: Double,
      seen: Array[Int], nbrs: mutable.ArrayBuilder.ofInt
  ): Int = {
    var cnt = 0
    var u = 0
    while (u < r.length) {
      val q = r(u)
      if (q != i && p.dist2(i, q) < dcut2) {
        cnt += 1
        if (nbrs != null) {
          val c2 = cellOf(q)
          if (c2 != c && seen(c2) != c) { seen(c2) = c; nbrs += c2 }
        }
      }
      u += 1
    }
    cnt
  }
}
