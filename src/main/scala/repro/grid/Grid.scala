package repro.grid

import repro.core.Pts
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Uniform grid over the non-empty cells of a point set (§4.1 / §5).
  *
  * Each cell is a d-dimensional cube of the given side; cells are materialized
  * lazily (no empty cells), keyed by their integer coordinates, and assigned a
  * dense index `0 until nCells`. Per-cell metadata (`p*(c)`, min rho, `N(c)`)
  * is computed by the algorithms during the density phase, not here.
  */
final class Grid(val pts: Pts, val side: Double) extends Serializable {
  require(side > 0, "cell side must be positive")

  private val built = Grid.build(pts, side)

  /** Dense cell index of every point. */
  val cellOf: Array[Int] = built._1

  /** Member point ids of each cell (parallel to [[key]]). */
  val cells: Array[Array[Int]] = built._2

  private val keys0: Array[Array[Int]] = built._3

  /** Number of non-empty cells. */
  def nCells: Int = cells.length

  /** Integer coordinates of cell c. */
  def key(c: Int): Array[Int] = keys0(c)

  /** Geometric center of cell c. */
  def center(c: Int): Array[Double] = keys0(c).map(k => (k + 0.5) * side)

  /** Modelled footprint: per-point cell index + per-cell key and member arrays. */
  def memBytes: Long = 4L * pts.n + nCells.toLong * (4L * pts.d + 48L) + 4L * pts.n
}

object Grid {
  private def build(
      pts: Pts,
      side: Double
  ): (Array[Int], Array[Array[Int]], Array[Array[Int]]) = {
    val cellOf  = new Array[Int](pts.n)
    val index   = mutable.HashMap.empty[ArraySeq[Int], Int]
    val members = mutable.ArrayBuffer.empty[mutable.ArrayBuilder.ofInt]
    val keysBuf = mutable.ArrayBuffer.empty[Array[Int]]
    var i = 0
    while (i < pts.n) {
      val key = Array.tabulate(pts.d) { j =>
        val x = pts.coord(i, j)
        val k = math.floor(x / side)
        // toInt would saturate, silently merging far-apart cells.
        require(k >= Int.MinValue && k <= Int.MaxValue,
          s"grid cell side $side is too small for coordinate $x (point $i, axis $j): " +
            s"floor(x / side) = $k is outside the Int range")
        k.toInt
      }
      val wrapped = ArraySeq.unsafeWrapArray(key)
      val c = index.getOrElseUpdate(wrapped, {
        members += new mutable.ArrayBuilder.ofInt
        keysBuf += key
        members.length - 1
      })
      cellOf(i) = c
      members(c) += i
      i += 1
    }
    (cellOf, members.map(_.result()).toArray, keysBuf.toArray)
  }
}
