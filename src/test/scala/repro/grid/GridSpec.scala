package repro.grid

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.Pts
import scala.collection.mutable

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

  /** Reference grid: cells numbered in first-seen order via a map on the
    * boxed keys, members in ascending id.
    */
  private def reference(pts: Pts, side: Double): (Array[Int], Seq[Seq[Int]], Seq[Seq[Int]]) = {
    val index  = mutable.LinkedHashMap.empty[Seq[Int], mutable.ArrayBuffer[Int]]
    val cellOf = Array.tabulate(pts.n) { i =>
      val key = (0 until pts.d).map(j => math.floor(pts.coord(i, j) / side).toInt)
      index.getOrElseUpdate(key, mutable.ArrayBuffer.empty) += i
      index.keys.toSeq.indexOf(key)
    }
    (cellOf, index.values.map(_.toSeq).toSeq, index.keys.toSeq)
  }

  private def assertMatchesReference(pts: Pts, side: Double): Grid = {
    val grid = new Grid(pts, side)
    val (cellOf, cells, keys) = reference(pts, side)
    assert(grid.nCells === cells.length)
    assert(grid.cellOf.toSeq === cellOf.toSeq)
    assert(grid.cells.map(_.toSeq).toSeq === cells)
    assert((0 until grid.nCells).map(c => grid.key(c).toSeq) === keys)
    (0 until grid.nCells).foreach { c =>
      assert(grid.size(c) === cells(c).length)
      assert((grid.start(c) until grid.start(c + 1)).map(grid.members) === cells(c))
    }
    grid
  }

  test("cells are numbered in first-seen order and list their members in ascending id") {
    val pts  = TestUtil.clusteredPts(600, 2, k = 3, sigma = 15.0, domain = 200.0, seed = 46)
    val grid = assertMatchesReference(pts, 6.0)
    // The first point of each new cell, in id order, opens cells 0, 1, 2, ...
    val opened = (0 until pts.n).map(grid.cellOf).distinct
    assert(opened === (0 until grid.nCells))
  }

  test("negative and mixed-sign coordinates match the reference grid") {
    val pts = TestUtil.uniformPts(800, 3, 200.0, seed = 47)
    val shifted = Pts.fromArrays(3, (0 until pts.n).map(i => pts.point(i).map(_ - 100.0)))
    val grid = assertMatchesReference(shifted, 9.5)
    assert((0 until grid.nCells).exists(c => grid.key(c).exists(_ < 0)))
  }

  test("20k points in one cell") {
    val rnd  = new scala.util.Random(48)
    val pts  = Pts.fromArrays(2, Seq.fill(20000)(Array(rnd.nextDouble() * 0.9, 3.0 + rnd.nextDouble() * 0.9)))
    val grid = new Grid(pts, side = 1.0)
    assert(grid.nCells === 1)
    assert(grid.cells.head.toSeq === (0 until 20000))
    assert(grid.key(0).toSeq === Seq(0, 3))
  }

  test("64-d keys: points that differ only in their last coordinate get different cells") {
    val pts  = TestUtil.uniformPts(500, 64, 10.0, seed = 49)
    assertMatchesReference(pts, 4.0)
    val base = Array.fill(64)(1.5)
    val twin = base.clone()
    twin(63) = 2.5
    val grid = new Grid(Pts.fromArrays(64, Seq(base, twin, base.clone())), side = 1.0)
    assert(grid.cellOf.toSeq === Seq(0, 1, 0))
  }
}
