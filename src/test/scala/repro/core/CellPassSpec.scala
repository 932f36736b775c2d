package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.grid.Grid
import repro.kdtree.MaxRhoKdTree
import scala.collection.mutable

/** The per-cell scan against brute force: the strict neighbour count of a
  * point, and each other cell holding a neighbour listed exactly once.
  */
class CellPassSpec extends AnyFunSuite {

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
}
