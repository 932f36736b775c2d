package repro.core

import repro.{SparkSpec, TestUtil}
import repro.grid.Grid
import repro.kdtree.MaxRhoKdTree
import scala.collection.mutable

/** The grid pass: the per-cell scan against brute force (the strict
  * neighbour count of a point, and each other cell holding a neighbour listed
  * exactly once), the approximate dependent step on a hand-built input, and
  * the densities of the one-member-per-cell mode.
  */
class CellPassSpec extends SparkSpec {

  for ((d, dcut) <- Seq((2, 30.0), (3, 60.0))) {
    test(s"scan counts neighbours and lists each neighbour cell once (d=$d)") {
      val pts  = TestUtil.quantizedPts(3000, d, k = 3, sigma = 40.0, domain = 600.0, step = 5.0, seed = 95L + d)
      val grid = new Grid(pts, dcut / math.sqrt(d.toDouble))
      val tree = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
      val seen = Array.fill(grid.nCells)(-1)
      (0 until grid.nCells).foreach { c =>
        val i    = grid.members(grid.start(c))
        val nbrs = new mutable.ArrayBuilder.ofInt
        val cnt  = CellPass.scan(pts, grid.cellOf, i, c, tree.rangeSearch(pts.point(i), dcut), dcut * dcut, seen, nbrs)
        val near = (0 until pts.n).filter(q => q != i && pts.dist2(i, q) < dcut * dcut)
        assert(cnt === near.length, s"cell $c")
        val got = nbrs.result().toSeq
        assert(got.distinct.length === got.length, s"cell $c lists a neighbour cell twice: $got")
        assert(got.toSet === near.map(grid.cellOf).filter(_ != c).toSet, s"cell $c")
      }
    }
  }

  // Five cells of side 1 on a line, members by ascending id:
  // 0 {0, 1}, 1 {2}, 2 {3, 4}, 3 {5}, 4 {6, 7}, with hand-set densities, so
  // p* = 0, 2, 4, 5, 7 and min rho = 3, 7, 9, 9, 2. N(c) is set by hand too.
  private lazy val hand = {
    val xs   = Seq(0.2, 0.7, 1.5, 2.5, 2.6, 3.5, 4.5, 4.6)
    val grid = new Grid(Pts.fromArrays(2, xs.map(x => Array(x, 0.5))), 1.0)
    assert(grid.cellOf.toSeq === Seq(0, 0, 1, 2, 2, 3, 4, 4))
    val rho    = Array(5.0, 3.0, 7.0, 9.0, 9.5, 9.0, 2.0, 20.0)
    val pstar  = Array(0, 2, 4, 5, 7)
    val minRho = Array(3.0, 7.0, 9.0, 9.0, 2.0)
    val nbrs   = Array(Array(1, 2, 4), Array(3, 2), Array(0, 1, 3), Array.emptyIntArray, Array(2))
    val nbrOff = nbrs.scanLeft(0)(_ + _.length)
    CellPass.dependents(grid, rho, pstar, minRho, nbrOff, nbrs.flatten, memberDelta = 0.25, starDelta = 1.75)
  }

  test("dependents: a non-representative member depends on its representative at memberDelta") {
    val (depId, delta, _) = hand
    for ((i, star) <- Seq(1 -> 0, 3 -> 4, 6 -> 7)) {
      assert(depId(i) === star, s"member $i")
      assert(delta(i) === 0.25, s"member $i")
    }
  }

  test("dependents: of two denser neighbour cells, the larger min density wins") {
    // Cell 0 (rho(p*) 5): cells 1 (min 7) and 2 (min 9) are denser, cell 4
    // (min 2) is not although its p* is.
    val (depId, delta, _) = hand
    assert(depId(0) === 4 && delta(0) === 1.75)
  }

  test("dependents: equal min densities keep the first cell in N(c) order") {
    // Cell 1 (rho(p*) 7): N = [3, 2], both with min 9.
    val (depId, delta, _) = hand
    assert(depId(2) === 5 && delta(2) === 1.75)
  }

  test("dependents: a representative with no denser neighbour cell is undecided") {
    // Cell 2: no neighbour min above 9.5; cell 3: no neighbours; cell 4: min 9 < 20.
    val (depId, delta, undecided) = hand
    assert(undecided.toSeq === Seq(4, 5, 7))
    undecided.foreach(i => assert(depId(i) === -1 && delta(i) === 0.0, s"undecided $i"))
  }

  for (firstOnly <- Seq(true, false))
    test(s"run: densities are exact, and with firstOnly only for each cell's first member (firstOnly=$firstOnly)") {
      val pts    = TestUtil.clusteredPts(600, 2, k = 3, sigma = 30.0, domain = 1000.0, seed = 97L)
      val (side, dcut) = (15.0, 30.0)
      val grid   = new Grid(pts, side)
      val firsts = grid.cells.map(_.head)
      val rhoB   = TestUtil.bruteRho(pts, dcut)
      assert(firsts.length < pts.n / 2)
      val pass = Run(spark)(CellPass.run(_, pts, side, dcut, firstOnly, memberDelta = 0.25, starDelta = 1.75))
      (0 until pts.n).foreach { i =>
        if (firstOnly && !firsts.contains(i)) assert(pass.rho(i).isNaN, s"point $i")
        else assert(pass.rho(i) === rhoB(i), s"point $i")
      }
      if (firstOnly) assert(pass.pstar.toSeq === firsts.toSeq)
      (0 until pts.n).foreach { i =>
        val star = pass.pstar(grid.cellOf(i))
        if (i != star) assert(pass.depId(i) === star && pass.delta(i) === 0.25, s"point $i")
      }
    }
}
