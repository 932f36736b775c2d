package repro.kdtree

import repro.core.Pts

/** The paper's incremental kd-tree (§3) as Bentley's semidynamic activation
  * of one static [[MaxRhoKdTree]] over all points: [[insert]] activates a
  * point, and the searches see the active points only. Active points have
  * density 0, the others -inf, so [[nearest]] is the tree's search for a
  * point denser than -1, the smallest id among equidistant ones.
  *
  * No algorithm uses it: Ex-DPC searches its density phase's tree directly.
  * It remains for the benchmark's layers, which replay the paper's insert +
  * nearest-neighbour loop, count ranges and broadcast it.
  */
final class KdTree(val pts: Pts) extends Serializable {
  private val tree   = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
  private val slotOf = {
    val order = tree.leafOrder
    val s     = new Array[Int](pts.n)
    order.indices.foreach(k => s(order(k)) = k)
    s
  }
  private var dens     = tree.densities(new Array[Double](pts.n), Array.emptyIntArray)
  private var inserted = new Array[Boolean](pts.n)
  private var count    = 0

  /** Number of points currently in the tree. */
  def size: Int = count

  /** Makes the tree hold exactly the points `ids`. */
  def buildFrom(ids: Array[Int]): this.type = {
    dens = tree.densities(new Array[Double](pts.n), ids)
    inserted = new Array[Boolean](pts.n)
    ids.foreach(inserted(_) = true)
    count = inserted.count(identity)
    this
  }

  /** Makes the tree hold all points of the underlying set. */
  def buildAll(): this.type = buildFrom(Array.range(0, pts.n))

  /** Inserts point `p`; O(height). Inserting it again changes nothing. */
  def insert(p: Int): Unit = if (!inserted(p)) {
    inserted(p) = true
    count += 1
    tree.raise(dens, slotOf(p), 0.0)
  }

  /** Number of points in the tree with dist(q, p) strictly below `r` (Definition 1). */
  def rangeCount(q: Array[Double], r: Double): Int =
    if (count == pts.n) tree.rangeCount(q, r)
    else tree.rangeSearch(q, r).count(i => inserted(i) && pts.dist2To(i, q) < r * r)

  /** Nearest point of the tree to `q` if strictly within `bound`, else `(-1, +inf)`. */
  def nearest(q: Array[Double], bound: Double = Double.PositiveInfinity): (Int, Double) = {
    val hit = tree.denserNearest(q, -1.0, dens)
    if (hit._1 >= 0 && pts.dist2To(hit._1, q) < bound * bound) hit else (-1, Double.PositiveInfinity)
  }
}
