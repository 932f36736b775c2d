package repro.core

/** The pair kernel of the quadratic scans (Scan, R-tree + Scan, CFSFDP-A): a
  * column-major copy of some rows of a [[Pts]].
  *
  * Row `s` is point `rows(s)`, and coordinate `k` of every row lies in one
  * contiguous column. [[dist2]] writes the squared distances from a query to a
  * range of rows into a buffer one column at a time, so each pass is a
  * unit-stride loop that the JIT can vectorize. Each value is bit-identical to
  * `Pts.dist2`: column 0 assigns `(x - q(0))^2`, which equals `0.0 + (q(0) - x)^2`
  * (negating a difference leaves its square unchanged, and a square is never
  * -0.0), and every later column adds its square in coordinate order.
  *
  * A task builds its own `Columns` in its kernel factory, from the driver's
  * own `Pts`, which the kernel captures; the column copy is the task's. The
  * buffers are the caller's: one per task, of any positive length;
  * [[count]] and [[nearest]] work through a range in chunks of that length,
  * and each finishes the distances in its last column's pass, comparing each
  * one as it is summed, so no separate pass reads the finished distances.
  */
final class Columns(pts: Pts, rows: Array[Int]) {
  require(pts.d >= 1, "points have no coordinates")

  /** Coordinates per row. */
  val d: Int = pts.d

  private val cols: Array[Array[Double]] = Array.tabulate(d) { k =>
    val c = new Array[Double](rows.length)
    var s = 0
    while (s < c.length) { c(s) = pts.data(rows(s) * d + k); s += 1 }
    c
  }

  /** Copies row `s`'s coordinates into `q`. */
  def row(s: Int, q: Array[Double]): Unit = {
    var k = 0
    while (k < d) { q(k) = cols(k)(s); k += 1 }
  }

  /** Writes the squared distance from `q` to row `s` into `acc(s - lo)`, for
    * every `s` in `[lo, hi)`; `acc` must hold `hi - lo` values.
    */
  def dist2(q: Array[Double], lo: Int, hi: Int, acc: Array[Double]): Unit = {
    partial(q, lo, hi, acc)
    val c = cols(d - 1)
    val x = q(d - 1)
    var j = 0
    while (j < hi - lo) { val t = c(lo + j) - x; acc(j) = if (d == 1) t * t else acc(j) + t * t; j += 1 }
  }

  /** Every column pass of [[dist2]] but the last: the squares of coordinates
    * `0 until d - 1` summed into `acc`; nothing for `d = 1`, whose first pass
    * is its last.
    */
  private def partial(q: Array[Double], lo: Int, hi: Int, acc: Array[Double]): Unit = {
    val len = hi - lo
    var k = 0
    while (k < d - 1) {
      val c = cols(k)
      val x = q(k)
      var j = 0
      if (k == 0) while (j < len) { val t = c(lo + j) - x; acc(j) = t * t; j += 1 }
      else while (j < len) { val t = c(lo + j) - x; acc(j) += t * t; j += 1 }
      k += 1
    }
  }

  /** Number of rows in `[lo, hi)` whose squared distance from `q` is below `r2`.
    * The last column's pass finishes each distance and compares it at once.
    */
  def count(q: Array[Double], lo: Int, hi: Int, r2: Double, acc: Array[Double]): Int = {
    val c   = cols(d - 1)
    val x   = q(d - 1)
    var cnt = 0
    var a   = lo
    while (a < hi) {
      val len = math.min(hi - a, acc.length)
      partial(q, a, a + len, acc)
      var j = 0
      while (j < len) {
        val t  = c(a + j) - x
        val d2 = if (d == 1) t * t else acc(j) + t * t
        if (d2 < r2) cnt += 1
        j += 1
      }
      a += len
    }
    cnt
  }

  /** The first row in `[lo, hi)` at the least squared distance from `q`, or -1
    * if the range is empty (or every distance overflows to +inf). The last
    * column's pass finishes each distance and keeps the minimum at once.
    */
  def nearest(q: Array[Double], lo: Int, hi: Int, acc: Array[Double]): Int = {
    val c      = cols(d - 1)
    val x      = q(d - 1)
    var best   = -1
    var bestD2 = Double.PositiveInfinity
    var a      = lo
    while (a < hi) {
      val len = math.min(hi - a, acc.length)
      partial(q, a, a + len, acc)
      var j = 0
      while (j < len) {
        val t  = c(a + j) - x
        val d2 = if (d == 1) t * t else acc(j) + t * t
        if (d2 < bestD2) { bestD2 = d2; best = a + j }
        j += 1
      }
      a += len
    }
    best
  }
}

object Columns {

  /** Buffer length for [[Columns.count]] and [[Columns.nearest]]: 8 KiB of
    * distances, which stay in the L1 cache between column passes.
    */
  val Chunk: Int = 1024
}
