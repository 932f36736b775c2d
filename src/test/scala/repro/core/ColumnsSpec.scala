package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The column-major pair kernel gives, bit for bit, the distances `Pts.dist2`
  * gives, and its range count and nearest search agree with a scan over them.
  */
class ColumnsSpec extends AnyFunSuite {

  /** A coordinate of magnitude 1e-3 to 1e6 with either sign, or a signed zero. */
  private def coord(rnd: Random): Double = rnd.nextInt(10) match {
    case 0 => -0.0
    case 1 => 0.0
    case _ =>
      val x = math.pow(10.0, -3.0 + 9.0 * rnd.nextDouble())
      if (rnd.nextBoolean()) -x else x
  }

  /** `n` points in `R^d`, about a fifth of them copies of an earlier point. */
  private def points(rnd: Random, n: Int, d: Int): Pts = {
    val rows = Array.ofDim[Array[Double]](n)
    for (i <- 0 until n)
      rows(i) = if (i > 0 && rnd.nextInt(5) == 0) rows(rnd.nextInt(i)).clone() else Array.fill(d)(coord(rnd))
    Pts.fromArrays(d, rows.toSeq)
  }

  /** A range `[lo, hi)` of `0 until m`: empty, a single row, or arbitrary. */
  private def range(rnd: Random, m: Int): (Int, Int) = {
    val lo = rnd.nextInt(m + 1)
    rnd.nextInt(4) match {
      case 0 => (lo, lo)
      case 1 if lo < m => (lo, lo + 1)
      case _ => (lo, lo + rnd.nextInt(m - lo + 1))
    }
  }

  private def same(a: Double, b: Double): Boolean = java.lang.Double.compare(a, b) == 0

  for (d <- Seq(1, 2, 3, 5, 8)) {
    test(s"dist2 is bit-identical to Pts.dist2 over arbitrary rows and ranges (d=$d)") {
      val rnd = new Random(900L + d)
      for (trial <- 0 until 200) {
        val pts  = points(rnd, 1 + rnd.nextInt(if (trial % 10 == 0) 3000 else 60), d)
        val rows = rnd.shuffle((0 until pts.n).toVector).toArray
        val c    = new Columns(pts, rows)
        val q    = new Array[Double](d)
        val acc  = new Array[Double](pts.n)
        for (_ <- 0 until 5) {
          val (lo, hi) = range(rnd, pts.n)
          val j        = rnd.nextInt(pts.n)
          c.row(rows.indexOf(j), q)
          assert(q.toSeq.map(java.lang.Double.doubleToRawLongBits) === pts.point(j).toSeq.map(java.lang.Double.doubleToRawLongBits))
          c.dist2(q, lo, hi, acc)
          for (s <- lo until hi) {
            val v = acc(s - lo)
            assert(same(v, pts.dist2(j, rows(s))) && same(v, pts.dist2(rows(s), j)),
              s"d=$d: row $s (point ${rows(s)}) from point $j: $v != ${pts.dist2(j, rows(s))}")
          }
        }
      }
    }
  }

  for (d <- Seq(1, 2, 3, 5, 8)) {
    test(s"count and nearest agree with Pts.dist2 across chunk boundaries (d=$d)") {
      val rnd = new Random(950L + d)
      for (trial <- 0 until 100) {
        val pts  = points(rnd, 1 + rnd.nextInt(if (trial % 10 == 0) 3000 else 60), d)
        val rows = rnd.shuffle((0 until pts.n).toVector).toArray
        val c    = new Columns(pts, rows)
        val q    = new Array[Double](d)
        for (len <- Seq(1, 3, 7, Columns.Chunk)) {
          val acc      = new Array[Double](len)
          val (lo, hi) = range(rnd, pts.n)
          val j        = rows(rnd.nextInt(pts.n))
          c.row(rows.indexOf(j), q)
          val d2 = (lo until hi).map(s => pts.dist2(j, rows(s)))
          val r2 = if (d2.isEmpty || rnd.nextBoolean()) rnd.nextDouble() * 1e6 else d2(rnd.nextInt(d2.length))
          assert(c.count(q, lo, hi, r2, acc) === d2.count(_ < r2), s"d=$d, chunk $len, [$lo, $hi), r2 $r2")
          val first = if (d2.isEmpty) -1 else lo + d2.indexOf(d2.min)
          assert(c.nearest(q, lo, hi, acc) === first, s"d=$d, chunk $len, [$lo, $hi)")
        }
      }
    }
  }

  test("nearest keeps the first of equidistant rows, and an empty range has none") {
    val pts = Pts.fromArrays(2, Seq(Array(0.0, 0.0), Array(3.0, 4.0), Array(-3.0, -4.0), Array(5.0, 0.0), Array(0.0, 0.0)))
    val c   = new Columns(pts, Array(4, 3, 2, 1, 0))
    val q   = Array(0.0, 0.0)
    val acc = new Array[Double](2)
    assert(c.nearest(q, 1, 4, acc) === 1)
    assert(c.nearest(q, 0, 5, acc) === 0)
    assert(c.nearest(q, 2, 2, acc) === -1)
    assert(c.count(q, 1, 4, 25.0, acc) === 0)
    assert(c.count(q, 1, 4, math.nextUp(25.0), acc) === 3)
  }
}
