package repro.kdtree

import repro.core.Pts

/** Static kd-tree over a subset of a [[Pts]] set whose nodes also store the
  * largest density in their subtree: the priority-search kd-tree of Huang, Yu
  * and Shun, "Faster Parallel Exact Density Peaks Clustering" (ACDA 2023).
  *
  * It answers DPC's dependent-point query, "the nearest indexed point with
  * strictly higher density than `rhoQ`", by a nearest-neighbour search that
  * also prunes every subtree whose `maxRho <= rhoQ`. Each query is independent
  * and re-entrant, so one broadcast tree serves all Spark tasks.
  *
  * Layout is flat: ids, coordinates and densities are permuted into leaf order,
  * and every node is a row of the node arrays (pre-order, so an internal node's
  * left child is the next row) with its bounding box. The tree holds no
  * reference to the point set, so broadcasting it ships only these arrays.
  * Build it with [[MaxRhoKdTree.build]].
  */
final class MaxRhoKdTree private (
    d: Int,
    perm: Array[Int],      // point ids in leaf order
    xs: Array[Double],     // their coordinates, row-major
    rhos: Array[Double],   // their densities
    first: Array[Int],     // node covers leaf slots first until last
    last: Array[Int],
    right: Array[Int],     // right child row, -1 for a leaf
    maxRho: Array[Double],
    boxLo: Array[Double],  // per node, d coordinates
    boxHi: Array[Double],
    height: Int
) extends Serializable {

  /** Squared distance from `q` to the box of `node` (0 inside it). */
  private def boxDist2(node: Int, q: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < d) {
      val x   = q(j)
      val lo  = boxLo(node * d + j)
      val hi  = boxHi(node * d + j)
      val gap = if (x < lo) lo - x else if (x > hi) x - hi else 0.0
      s += gap * gap
      j += 1
    }
    s
  }

  /** Nearest indexed point with density strictly above `rhoQ`, as `(id,
    * distance)`; `(-1, +inf)` when there is none.
    *
    * Among points at the same distance the smallest id wins, so the answer
    * does not depend on the tree's shape. Squared distances are summed in
    * coordinate order, as [[Pts.dist2]] does, so they are bit-identical to it;
    * and a box's distance never exceeds that of a point inside it, so pruning
    * boxes strictly farther than the best point loses no tie.
    */
  def denserNearest(q: Array[Double], rhoQ: Double): (Int, Double) = {
    var bestId = -1
    var bestD2 = Double.PositiveInfinity
    // Explicit DFS stack of (node, squared box distance). Each pop leaves at
    // most one pending sibling per level, so height + 2 slots suffice.
    val stackNode = new Array[Int](height + 2)
    val stackD2   = new Array[Double](height + 2)
    var top = 0
    if (maxRho(0) > rhoQ) { stackNode(0) = 0; stackD2(0) = boxDist2(0, q); top = 1 }
    while (top > 0) {
      top -= 1
      val node = stackNode(top)
      if (stackD2(top) <= bestD2) {
        val r = right(node)
        if (r < 0) {
          var s = first(node)
          while (s < last(node)) {
            if (rhos(s) > rhoQ) {
              var d2 = 0.0
              var j  = 0
              while (j < d) { val t = q(j) - xs(s * d + j); d2 += t * t; j += 1 }
              if (d2 < bestD2 || (d2 == bestD2 && perm(s) < bestId)) { bestD2 = d2; bestId = perm(s) }
            }
            s += 1
          }
        } else {
          val l  = node + 1
          val dl = if (maxRho(l) > rhoQ) boxDist2(l, q) else Double.PositiveInfinity
          val dr = if (maxRho(r) > rhoQ) boxDist2(r, q) else Double.PositiveInfinity
          // Push the farther child first so that the nearer one is searched first.
          val leftNear = dl <= dr
          val dFar     = if (leftNear) dr else dl
          val dNear    = if (leftNear) dl else dr
          if (dFar <= bestD2) { stackNode(top) = if (leftNear) r else l; stackD2(top) = dFar; top += 1 }
          if (dNear <= bestD2) { stackNode(top) = if (leftNear) l else r; stackD2(top) = dNear; top += 1 }
        }
      }
    }
    if (bestId < 0) (-1, Double.PositiveInfinity) else (bestId, math.sqrt(bestD2))
  }
}

object MaxRhoKdTree {

  /** Most ids a leaf holds. */
  val LeafSize = 16

  /** Builds the tree over the points `ids` of `pts` with densities `rho`
    * (read at `ids` only).
    *
    * A node splits at the median position of its widest axis, not at a key
    * value, so the tree stays balanced at depth `log2(m / LeafSize)` however
    * many points share coordinates.
    */
  def build(pts: Pts, rho: Array[Double], ids: Array[Int]): MaxRhoKdTree = {
    val d      = pts.d
    val m      = ids.length
    val perm   = ids.clone()
    val nNodes = nodeCount(m)
    val first  = new Array[Int](nNodes)
    val last   = new Array[Int](nNodes)
    val right  = new Array[Int](nNodes)
    val maxRho = new Array[Double](nNodes)
    val boxLo  = Array.fill(nNodes * d)(Double.PositiveInfinity)
    val boxHi  = Array.fill(nNodes * d)(Double.NegativeInfinity)
    var rows   = 0
    var height = 0

    def node(lo: Int, hi: Int, depth: Int): Int = {
      val nd = rows
      rows += 1
      if (depth > height) height = depth
      first(nd) = lo
      last(nd) = hi
      var mx = Double.NegativeInfinity
      var s  = lo
      while (s < hi) {
        val i = perm(s)
        if (rho(i) > mx) mx = rho(i)
        var j = 0
        while (j < d) {
          val x = pts.coord(i, j)
          if (x < boxLo(nd * d + j)) boxLo(nd * d + j) = x
          if (x > boxHi(nd * d + j)) boxHi(nd * d + j) = x
          j += 1
        }
        s += 1
      }
      maxRho(nd) = mx
      if (hi - lo <= LeafSize) right(nd) = -1
      else {
        var axis = 0
        var j    = 1
        while (j < d) {
          if (boxHi(nd * d + j) - boxLo(nd * d + j) > boxHi(nd * d + axis) - boxLo(nd * d + axis)) axis = j
          j += 1
        }
        val mid = (lo + hi) >>> 1
        KdTree.selectMedian(pts, perm, lo, hi, mid, axis)
        node(lo, mid, depth + 1)
        right(nd) = node(mid, hi, depth + 1)
      }
      nd
    }
    node(0, m, 0)

    val xs   = new Array[Double](m * d)
    val rhos = new Array[Double](m)
    var s = 0
    while (s < m) { System.arraycopy(pts.data, perm(s) * d, xs, s * d, d); rhos(s) = rho(perm(s)); s += 1 }
    new MaxRhoKdTree(d, perm, xs, rhos, first, last, right, maxRho, boxLo, boxHi, height)
  }

  /** Nodes of a tree over `m` points: leaves hold at most [[LeafSize]] ids. */
  def nodeCount(m: Int): Int =
    if (m <= LeafSize) 1 else 1 + nodeCount(m / 2) + nodeCount(m - m / 2)

  /** Modelled bytes of a tree over `m` points in `R^d`: the leaf-order ids,
    * coordinates and densities, plus per node its slot range, right child,
    * `maxRho` and bounding box.
    */
  def memBytes(m: Int, d: Int): Long =
    m.toLong * (4L + 8L * d + 8L) + nodeCount(m).toLong * (12L + 8L + 16L * d)
}
