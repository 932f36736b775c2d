package repro.grid

import repro.core.Pts

/** Uniform grid over the non-empty cells of a point set (§4.1 / §5).
  *
  * Each cell is a d-dimensional cube of the given side; cells are materialized
  * lazily (no empty cells), keyed by their integer coordinates, and numbered
  * `0 until nCells` in the order their first point appears. Per-cell metadata
  * (`p*(c)`, min rho, `N(c)`) is computed by the algorithms during the density
  * phase, not here.
  *
  * Layout is flat: the members of cell `c` are `members(start(c) until
  * start(c + 1))`, in ascending id, and its key is `keys(c * d until (c + 1) *
  * d)`. The grid holds no reference to the point set.
  */
final class Grid private (
    val side: Double,
    val d: Int,
    val cellOf: Array[Int],   // dense cell index of every point
    val start: Array[Int],    // nCells + 1 offsets into members
    val members: Array[Int],  // point ids in cell order
    keys: Array[Int]          // integer cell coordinates, row-major
) {

  private def this(side: Double, d: Int, b: (Array[Int], Array[Int], Array[Int], Array[Int])) =
    this(side, d, b._1, b._2, b._3, b._4)

  def this(pts: Pts, side: Double) = this(side, pts.d, Grid.build(pts, side))

  /** Number of non-empty cells. */
  def nCells: Int = start.length - 1

  /** Number of points in cell c. */
  def size(c: Int): Int = start(c + 1) - start(c)

  /** Member point ids of every cell, each a fresh copy. */
  def cells: Array[Array[Int]] =
    Array.tabulate(nCells)(c => java.util.Arrays.copyOfRange(members, start(c), start(c + 1)))

  /** Integer coordinates of cell c. */
  def key(c: Int): Array[Int] = java.util.Arrays.copyOfRange(keys, c * d, (c + 1) * d)

  /** Geometric center of cell c. */
  def center(c: Int): Array[Double] = Array.tabulate(d)(j => (keys(c * d + j) + 0.5) * side)

  /** Modelled footprint: the cell index and cell-order slot of every point,
    * and per cell its start offset and key.
    */
  def memBytes: Long = 8L * cellOf.length + nCells.toLong * (4L + 4L * d) + 4L
}

object Grid {

  /** `(cellOf, start, members, keys)` of the grid of side `side` over `pts`.
    * Keys are looked up in an open-addressing table of cell indices.
    */
  private def build(pts: Pts, side: Double): (Array[Int], Array[Int], Array[Int], Array[Int]) = {
    require(side > 0, "cell side must be positive")
    val n      = pts.n
    val d      = pts.d
    val cellOf = new Array[Int](n)
    val keys   = new Array[Int](n * d) // row nCells holds the current point's key
    val count  = new Array[Int](n + 1)
    var cap    = 2
    while (cap < 2 * n) cap <<= 1
    val table  = new Array[Int](cap)
    java.util.Arrays.fill(table, -1)
    var nCells = 0
    var i = 0
    while (i < n) {
      val o = nCells * d
      var h = 0
      var j = 0
      while (j < d) {
        val x = pts.coord(i, j)
        val k = math.floor(x / side)
        // toInt would saturate, silently merging far-apart cells.
        require(k >= Int.MinValue && k <= Int.MaxValue,
          s"grid cell side $side is too small for coordinate $x (point $i, axis $j): " +
            s"floor(x / side) = $k is outside the Int range")
        keys(o + j) = k.toInt
        h = Integer.rotateLeft(h ^ (k.toInt * 0xCC9E2D51), 15) * 0x1B873593
        j += 1
      }
      h ^= h >>> 16; h *= 0x85EBCA6B; h ^= h >>> 13; h *= 0xC2B2AE35; h ^= h >>> 16
      var slot = h & (cap - 1)
      var c    = table(slot)
      while (c >= 0 && !java.util.Arrays.equals(keys, c * d, c * d + d, keys, o, o + d)) {
        slot = (slot + 1) & (cap - 1)
        c = table(slot)
      }
      if (c < 0) { c = nCells; table(slot) = c; nCells += 1 }
      cellOf(i) = c
      count(c + 1) += 1
      i += 1
    }
    val start = java.util.Arrays.copyOf(count, nCells + 1)
    var c = 0
    while (c < nCells) { start(c + 1) += start(c); c += 1 }
    val next    = java.util.Arrays.copyOf(start, nCells)
    val members = new Array[Int](n)
    i = 0
    while (i < n) { members(next(cellOf(i))) = i; next(cellOf(i)) += 1; i += 1 }
    (cellOf, start, members, java.util.Arrays.copyOf(keys, nCells * d))
  }
}
