package repro.core

import scala.collection.mutable

/** Output of one density task of Approx-DPC or S-Approx-DPC for its group of
  * grid cells, as flat arrays in group order.
  *
  * @param rhos   the densities the task computed: every member of every cell,
  *               in the grid's member order (Approx-DPC), or one picked point
  *               per cell (S-Approx-DPC)
  * @param pstar  per cell, its densest member `p*(c)` (Approx-DPC; else empty)
  * @param minRho per cell, its smallest member density (Approx-DPC; else empty)
  * @param nbrOff CSR offsets, one per cell plus one: cell k's `N(c)` is
  *               `nbrs(nbrOff(k) until nbrOff(k + 1))`
  * @param nbrs   the neighbour cells of all the group's cells
  */
final class CellBlock(
    val rhos: Array[Double],
    val pstar: Array[Int],
    val minRho: Array[Double],
    val nbrOff: Array[Int],
    val nbrs: Array[Int]
) extends Serializable

/** The per-cell scan both grid algorithms run on a range-search result. */
object CellPass {

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

  /** `N(c)` of every cell, from the blocks of the task groups `groups`, as
    * CSR arrays `(off, nbrs)`: cell c's neighbours are `nbrs(off(c) until
    * off(c + 1))`.
    */
  def neighbours(nCells: Int, groups: Array[Array[Int]], blocks: Array[CellBlock]): (Array[Int], Array[Int]) = {
    val off = new Array[Int](nCells + 1)
    var g = 0
    while (g < groups.length) {
      val cs = groups(g)
      val bo = blocks(g).nbrOff
      var k = 0
      while (k < cs.length) { off(cs(k) + 1) = bo(k + 1) - bo(k); k += 1 }
      g += 1
    }
    var c = 0
    while (c < nCells) { off(c + 1) += off(c); c += 1 }
    val nbrs = new Array[Int](off(nCells))
    g = 0
    while (g < groups.length) {
      val cs = groups(g)
      val b  = blocks(g)
      var k = 0
      while (k < cs.length) {
        System.arraycopy(b.nbrs, b.nbrOff(k), nbrs, off(cs(k)), b.nbrOff(k + 1) - b.nbrOff(k))
        k += 1
      }
      g += 1
    }
    (off, nbrs)
  }
}
