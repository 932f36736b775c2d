package repro.kdtree

import repro.core.Pts
import scala.collection.mutable

/** In-memory kd-tree over a [[Pts]] set (Bentley 1975).
  *
  * Supports the three operations the paper's algorithms need:
  *
  *  - balanced bulk build ([[buildFrom]]) — median split, cycling axes;
  *  - incremental insert ([[insert]]) — used by Ex-DPC's dependent-point phase,
  *    which rebuilds "an optimal kd-tree incrementally" in density order;
  *  - range count/report and bounded nearest-neighbour search.
  *
  * Searches are re-entrant (state lives in the call frame), so a single tree
  * broadcast to Spark tasks can be queried concurrently.
  */
final class KdTree(val pts: Pts) extends Serializable {

  private final class Node(val id: Int, val axis: Int) extends Serializable {
    var left: Node  = _
    var right: Node = _
  }

  private var root: Node = _
  private var count0     = 0

  /** Number of points currently in the tree. */
  def size: Int = count0

  /** Balanced build over the given point ids (previous contents discarded). */
  def buildFrom(idsIn: Array[Int]): this.type = {
    val work = idsIn.clone()
    root = buildRec(work, 0, work.length, 0)
    count0 = work.length
    this
  }

  /** Balanced build over all points of the underlying set. */
  def buildAll(): this.type = buildFrom(Array.tabulate(pts.n)(identity))

  private def buildRec(a: Array[Int], lo: Int, hi: Int, depth: Int): Node = {
    if (lo >= hi) return null
    val axis = depth % pts.d
    val mid  = (lo + hi) >>> 1
    KdTree.selectMedian(pts, a, lo, hi, mid, axis)
    val node = new Node(a(mid), axis)
    node.left = buildRec(a, lo, mid, depth + 1)
    node.right = buildRec(a, mid + 1, hi, depth + 1)
    node
  }

  /** Insert one point; axis cycles with depth, no rebalancing (paper §3). */
  def insert(id: Int): Unit = {
    count0 += 1
    if (root == null) { root = new Node(id, 0); return }
    var cur = root
    while (true) {
      val goLeft = pts.coord(id, cur.axis) < pts.coord(cur.id, cur.axis)
      val next   = if (goLeft) cur.left else cur.right
      if (next == null) {
        val child = new Node(id, (cur.axis + 1) % pts.d)
        if (goLeft) cur.left = child else cur.right = child
        return
      }
      cur = next
    }
  }

  /** Number of points with dist(q, p) strictly below `r` (Definition 1). */
  def rangeCount(q: Array[Double], r: Double): Int = {
    val r2 = r * r
    def rec(nd: Node): Int = {
      if (nd == null) return 0
      var c = if (pts.dist2To(nd.id, q) < r2) 1 else 0
      val diff = q(nd.axis) - pts.coord(nd.id, nd.axis)
      if (diff < 0) {
        c += rec(nd.left)
        if (-diff < r) c += rec(nd.right)
      } else {
        c += rec(nd.right)
        if (diff < r) c += rec(nd.left)
      }
      c
    }
    rec(root)
  }

  /** Report ids with dist(q, p) <= r (inclusive — used for the joint range
    * search's superset, where over-reporting is safe).
    */
  def rangeSearch(q: Array[Double], r: Double): Array[Int] = {
    val r2  = r * r
    val out = new mutable.ArrayBuilder.ofInt
    def rec(nd: Node): Unit = {
      if (nd == null) return
      if (pts.dist2To(nd.id, q) <= r2) out += nd.id
      val diff = q(nd.axis) - pts.coord(nd.id, nd.axis)
      if (diff < 0) {
        rec(nd.left)
        if (-diff <= r) rec(nd.right)
      } else {
        rec(nd.right)
        if (diff <= r) rec(nd.left)
      }
    }
    rec(root)
    out.result()
  }

  /** Nearest neighbour of `q` in the tree, with an optional initial distance
    * bound for pruning. Returns `(-1, +inf)` when the tree is empty or nothing
    * is within the bound.
    */
  def nearest(q: Array[Double], bound: Double = Double.PositiveInfinity): (Int, Double) = {
    var bestId = -1
    var bestD2 = if (bound.isInfinity) Double.PositiveInfinity else bound * bound
    def rec(nd: Node): Unit = {
      if (nd == null) return
      val d2 = pts.dist2To(nd.id, q)
      if (d2 < bestD2) { bestD2 = d2; bestId = nd.id }
      val diff = q(nd.axis) - pts.coord(nd.id, nd.axis)
      val (near, far) = if (diff < 0) (nd.left, nd.right) else (nd.right, nd.left)
      rec(near)
      if (diff * diff < bestD2) rec(far)
    }
    rec(root)
    if (bestId < 0) (-1, Double.PositiveInfinity) else (bestId, math.sqrt(bestD2))
  }

  /** Modelled footprint: one node (header + id + axis + 2 refs) per point. */
  def memBytes: Long = count0.toLong * 40L
}

object KdTree {

  /** Quickselect: after the call, a(k) holds the k-th order statistic of
    * a(lo until hi) by coordinate `axis`, with smaller keys left of it.
    */
  private[kdtree] def selectMedian(pts: Pts, a: Array[Int], lo0: Int, hi0: Int, k: Int, axis: Int): Unit = {
    var lo = lo0
    var hi = hi0 - 1 // inclusive
    var seed = (lo0 * 31 + hi0) | 1
    while (lo < hi) {
      seed = seed * 1103515245 + 12345
      val pi    = lo + ((seed >>> 16) % (hi - lo + 1) + (hi - lo + 1)) % (hi - lo + 1)
      val pivot = pts.coord(a(pi), axis)
      var i = lo
      var j = hi
      while (i <= j) {
        while (pts.coord(a(i), axis) < pivot) i += 1
        while (pts.coord(a(j), axis) > pivot) j -= 1
        if (i <= j) {
          val t = a(i); a(i) = a(j); a(j) = t
          i += 1; j -= 1
        }
      }
      if (k <= j) hi = j
      else if (k >= i) lo = i
      else return
    }
  }
}
