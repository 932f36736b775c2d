package repro.rtree

import repro.core.Pts

/** Bulk-loaded in-memory R-tree over a [[Pts]] set.
  *
  * Built STR-style: ids are recursively sorted on cycling axes and split into
  * `Fanout` slabs, so sibling MBRs are near-disjoint. Only range counting is
  * required by the `R-tree + Scan` baseline (its dependent-point phase reuses
  * Scan's, exactly as in the paper's experiments).
  */
final class RTree(val pts: Pts) {
  private val Fanout  = 8  // children of an inner node, at most
  private val LeafCap = 32 // ids of a leaf, at most

  private sealed trait Node {
    def lo: Array[Double]
    def hi: Array[Double]
    def size: Int
  }
  private final case class Leaf(ids: Array[Int], lo: Array[Double], hi: Array[Double]) extends Node {
    def size: Int = ids.length
  }
  private final case class Inner(children: Array[Node], lo: Array[Double], hi: Array[Double]) extends Node {
    val size: Int = children.map(_.size).sum
  }

  private var root: Node = _
  private var nodes      = 0

  /** Build over all points. */
  def buildAll(): this.type = {
    root = build(Array.tabulate(pts.n)(identity), 0)
    this
  }

  private def mbr(ids: Array[Int]): (Array[Double], Array[Double]) = {
    val lo = Array.fill(pts.d)(Double.PositiveInfinity)
    val hi = Array.fill(pts.d)(Double.NegativeInfinity)
    ids.foreach { i =>
      var j = 0
      while (j < pts.d) {
        val c = pts.coord(i, j)
        if (c < lo(j)) lo(j) = c
        if (c > hi(j)) hi(j) = c
        j += 1
      }
    }
    (lo, hi)
  }

  private def build(ids: Array[Int], depth: Int): Node = {
    nodes += 1
    val (lo, hi) = mbr(ids)
    if (ids.length <= LeafCap) return Leaf(ids, lo, hi)
    val axis   = depth % pts.d
    val sorted = ids.sortBy(i => pts.coord(i, axis))
    val step   = (sorted.length + Fanout - 1) / Fanout
    val kids   = sorted.grouped(step).map(g => build(g, depth + 1)).toArray
    Inner(kids, lo, hi)
  }

  /** Squared min distance from q to the node's MBR. */
  private def minDist2(q: Array[Double], lo: Array[Double], hi: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < pts.d) {
      val c = q(j)
      val t = if (c < lo(j)) lo(j) - c else if (c > hi(j)) c - hi(j) else 0.0
      s += t * t
      j += 1
    }
    s
  }

  /** Squared max distance from q to the node's MBR. */
  private def maxDist2(q: Array[Double], lo: Array[Double], hi: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < pts.d) {
      val t = math.max(math.abs(q(j) - lo(j)), math.abs(q(j) - hi(j)))
      s += t * t
      j += 1
    }
    s
  }

  /** Number of points with dist(q, p) strictly below r. */
  def rangeCount(q: Array[Double], r: Double): Int = {
    val r2 = r * r
    def rec(nd: Node): Int = {
      if (minDist2(q, nd.lo, nd.hi) >= r2) return 0
      if (maxDist2(q, nd.lo, nd.hi) < r2) return nd.size
      nd match {
        case Leaf(ids, _, _) =>
          var c = 0
          var i = 0
          while (i < ids.length) { if (pts.dist2To(ids(i), q) < r2) c += 1; i += 1 }
          c
        case Inner(children, _, _) =>
          var c = 0
          var i = 0
          while (i < children.length) { c += rec(children(i)); i += 1 }
          c
      }
    }
    if (root == null) 0 else rec(root)
  }

  /** Modelled footprint: nodes (2 MBR vectors + header) + leaf id arrays. */
  def memBytes: Long = nodes.toLong * (32L + 16L * pts.d) + 4L * pts.n
}
