package repro.grid

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.Pts

/** Uniform grid invariants. */
class GridSpec extends AnyFunSuite {

  for (d <- Seq(1, 2, 3, 4); n <- Seq(1, 50, 500)) {
    test(s"cells partition the point set (d=$d, n=$n)") {
      val pts  = TestUtil.uniformPts(n, d, 100.0, seed = 40L * d + n)
      val grid = new Grid(pts, side = 7.3)
      assert(grid.cells.map(_.length).sum === n)
      assert(grid.cells.flatten.sorted.toSeq === (0 until n))
      // membership is consistent with cellOf
      grid.cells.zipWithIndex.foreach { case (members, c) =>
        members.foreach(i => assert(grid.cellOf(i) === c))
      }
    }

    test(s"every point lies inside its cell's cube (d=$d, n=$n)") {
      val pts  = TestUtil.uniformPts(n, d, 100.0, seed = 41L * d + n)
      val side = 5.0
      val grid = new Grid(pts, side)
      (0 until n).foreach { i =>
        val key = grid.key(grid.cellOf(i))
        (0 until d).foreach { j =>
          val c = pts.coord(i, j)
          assert(c >= key(j) * side - 1e-9 && c < (key(j) + 1) * side + 1e-9)
        }
      }
    }
  }

  test("cell diameter bound: same-cell points are within side*sqrt(d)") {
    val d    = 3
    val pts  = TestUtil.uniformPts(800, d, 50.0, seed = 42)
    val side = 4.0
    val grid = new Grid(pts, side)
    val diam = side * math.sqrt(d.toDouble)
    grid.cells.foreach { members =>
      for (a <- members; b <- members) assert(pts.dist(a, b) <= diam + 1e-9)
    }
  }

  test("Approx-DPC side dcut/sqrt(d) keeps same-cell points within dcut") {
    val d    = 4
    val dcut = 10.0
    val pts  = TestUtil.uniformPts(1000, d, 60.0, seed = 43)
    val grid = new Grid(pts, dcut / math.sqrt(d.toDouble))
    grid.cells.foreach { members =>
      for (a <- members; b <- members) assert(pts.dist(a, b) <= dcut + 1e-9)
    }
  }

  test("no empty cells are materialized") {
    val pts  = TestUtil.clusteredPts(300, 2, k = 2, sigma = 1.0, domain = 1000.0, seed = 44)
    val grid = new Grid(pts, side = 5.0)
    assert(grid.cells.forall(_.nonEmpty))
    assert(grid.nCells <= pts.n)
  }

  test("center lies inside the cell cube") {
    val pts  = TestUtil.uniformPts(100, 2, 30.0, seed = 45)
    val grid = new Grid(pts, side = 3.0)
    (0 until grid.nCells).foreach { c =>
      val key = grid.key(c)
      val cp  = grid.center(c)
      (0 until 2).foreach { j =>
        assert(cp(j) === (key(j) + 0.5) * 3.0)
      }
    }
  }

  test("cell keys outside the Int range fail loudly instead of saturating") {
    // d_cut = 1e-6 in 1-d gives side 1e-6, and 1e4 / 1e-6 = 1e10 > Int.MaxValue.
    val pts = Pts.fromArrays(1, Seq(Array(0.0), Array(1e4)))
    val e   = intercept[IllegalArgumentException](new Grid(pts, side = 1e-6))
    assert(e.getMessage.contains("side 1.0E-6") && e.getMessage.contains("coordinate 10000.0"), e.getMessage)
  }

  test("negative coordinates are binned correctly") {
    val pts  = Pts.fromArrays(1, Seq(Array(-0.5), Array(0.5), Array(-3.5)))
    val grid = new Grid(pts, side = 1.0)
    assert(grid.key(grid.cellOf(0))(0) === -1)
    assert(grid.key(grid.cellOf(1))(0) === 0)
    assert(grid.key(grid.cellOf(2))(0) === -4)
  }
}
