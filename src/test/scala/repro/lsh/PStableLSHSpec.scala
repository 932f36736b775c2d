package repro.lsh

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.grid.Grid
import scala.collection.mutable
import scala.util.Random

class PStableLSHSpec extends AnyFunSuite {

  test("keys are deterministic") {
    val lsh = new PStableLSH(d = 3, m = 4, l = 2, w = 10.0, seed = 1)
    val p   = Array(1.0, 2.0, 3.0)
    assert(lsh.key(0, p) === lsh.key(0, p))
    assert(lsh.key(2, p) === lsh.key(2, p))
  }

  test("identical points always collide; distinct tables differ") {
    val lsh = new PStableLSH(d = 2, m = 8, l = 3, w = 5.0, seed = 2)
    val p   = Array(7.0, 7.0)
    val q   = Array(7.0, 7.0)
    (0 until 8).foreach(t => assert(lsh.key(t, p) === lsh.key(t, q)))
    val keys = (0 until 8).map(t => lsh.key(t, p))
    assert(keys.distinct.length > 1, "independent tables should hash differently")
  }

  test("locality: near pairs collide more often than far pairs") {
    val d   = 3
    val lsh = new PStableLSH(d, m = 32, l = 2, w = 10.0, seed = 3)
    val rnd = new Random(4)
    var nearHits = 0
    var farHits  = 0
    val trials = 200
    (0 until trials).foreach { _ =>
      val base = Array.fill(d)(rnd.nextDouble() * 100)
      val near = base.map(_ + rnd.nextGaussian() * 0.5)
      val far  = base.map(_ + (rnd.nextDouble() * 2 - 1) * 500)
      (0 until 32).foreach { t =>
        if (lsh.key(t, base) == lsh.key(t, near)) nearHits += 1
        if (lsh.key(t, base) == lsh.key(t, far)) farHits += 1
      }
    }
    assert(nearHits > farHits * 2, s"near=$nearHits far=$farHits")
  }

  test("key length equals l") {
    val lsh = new PStableLSH(d = 4, m = 2, l = 5, w = 3.0, seed = 5)
    assert(lsh.key(1, Array(1.0, 2.0, 3.0, 4.0)).length === 5)
  }

  test("paramBytes positive") {
    val lsh = new PStableLSH(d = 4, m = 3, l = 2, w = 3.0, seed = 6)
    assert(lsh.paramBytes > 0)
  }

  test("a table's grid over the projection numbers buckets as the boxed keys do") {
    Seq(
      TestUtil.quantizedPts(3000, 2, k = 4, sigma = 40.0, domain = 1000.0, step = 10.0, seed = 9),
      TestUtil.quantizedPts(3000, 5, k = 4, sigma = 40.0, domain = 1000.0, step = 40.0, seed = 10)
    ).foreach { pts =>
      assert(TestUtil.distinctPositions(pts) < pts.n)
      val lsh = new PStableLSH(pts.d, m = 4, l = 2, w = 40.0, seed = 11)
      (0 until lsh.m).foreach { t =>
        val grid   = new Grid(lsh.project(t, pts), lsh.w)
        // Buckets numbered in first-seen order on the boxed compound keys.
        val index  = mutable.HashMap.empty[Seq[Int], Int]
        val cellOf = Array.tabulate(pts.n)(i => index.getOrElseUpdate(lsh.key(t, pts.point(i)), index.size))
        assert(grid.cellOf.toSeq === cellOf.toSeq, s"table $t")
        assert(grid.nCells === index.size && grid.nCells > 1 && grid.nCells < pts.n / 2, s"table $t")
        val members = (0 until pts.n).groupBy(i => cellOf(i))
        grid.cells.zipWithIndex.foreach { case (cell, c) => assert(cell.toSeq === members(c), s"table $t, bucket $c") }
      }
    }
  }

  test("a key outside the Int range fails loudly instead of saturating") {
    val lsh = new PStableLSH(d = 2, m = 1, l = 1, w = 1e-9, seed = 8)
    val e   = intercept[IllegalArgumentException](lsh.key(0, Array(1e6, 1e6)))
    assert(e.getMessage.contains("side 1.0E-9") && e.getMessage.contains("outside the Int range"), e.getMessage)
  }

  test("rejects invalid parameters") {
    intercept[IllegalArgumentException](new PStableLSH(0, 1, 1, 1.0, 7))
    intercept[IllegalArgumentException](new PStableLSH(2, 1, 1, -1.0, 7))
  }
}
