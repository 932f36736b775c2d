package repro.kdtree

import repro.core.Pts

/** Static kd-tree over a subset of a [[Pts]] set that answers both of DPC's
  * queries: the range searches of the density phase, and, once densities are
  * attached, the dependent-point query of the priority-search kd-tree of
  * Huang, Yu and Shun, "Faster Parallel Exact Density Peaks Clustering"
  * (ACDA 2023).
  *
  * The tree itself holds geometry only, so it can be built and shared
  * before any density is known. After the density phase, [[densities]] puts
  * the densities into leaf order and gives every node the largest density in
  * its subtree, as a separate [[MaxRhoKdTree.Densities]] value, so one tree
  * serves several sets of densities. Queries are independent and re-entrant,
  * so one tree serves all Spark tasks.
  *
  * Layout is flat: ids and coordinates are permuted into leaf order, and every
  * node is a row of the node arrays (pre-order, so an internal node's left
  * child is the next row) with its bounding box. The tree holds no reference
  * to the point set. Build it with [[MaxRhoKdTree.build]].
  */
final class MaxRhoKdTree private (
    d: Int,
    perm: Array[Int],      // point ids in leaf order
    xs: Array[Double],     // their coordinates, row-major
    first: Array[Int],     // node covers leaf slots first until last
    last: Array[Int],
    right: Array[Int],     // right child row, -1 for a leaf
    boxLo: Array[Double],  // per node, d coordinates
    boxHi: Array[Double],
    height: Int
) {

  /** Squared distance from `q` to the box of `node` (0 inside it). A point in
    * the box is never nearer: coordinate differences round monotonically.
    */
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

  /** Squared distance from `q` to the farthest corner of the box of `node`,
    * summed in coordinate order like the per-point distance, so no point in
    * the box is farther.
    */
  private def boxFar2(node: Int, q: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    while (j < d) {
      val a = math.abs(q(j) - boxLo(node * d + j))
      val b = math.abs(q(j) - boxHi(node * d + j))
      val t = if (a > b) a else b
      s += t * t
      j += 1
    }
    s
  }

  /** Squared distance from `q` to the point in leaf slot `s`, summed in
    * coordinate order exactly as [[Pts.dist2To]] does.
    */
  @inline private def slotDist2(s: Int, q: Array[Double]): Double = {
    var d2 = 0.0
    var j  = 0
    while (j < d) { val t = q(j) - xs(s * d + j); d2 += t * t; j += 1 }
    d2
  }

  /** Ids with dist(q, p) <= r. A node whose box lies inside the ball
    * contributes its whole leaf slice.
    */
  def rangeSearch(q: Array[Double], r: Double): Array[Int] = {
    val r2    = r * r
    var out   = new Array[Int](64)
    var n     = 0
    val stack = new Array[Int](height + 2)
    var top   = 0
    if (perm.nonEmpty) { stack(0) = 0; top = 1 }
    while (top > 0) {
      top -= 1
      val node = stack(top)
      if (boxDist2(node, q) <= r2) {
        val whole = boxFar2(node, q) <= r2
        if (whole || right(node) < 0) {
          val lo = first(node)
          val hi = last(node)
          if (n + hi - lo > out.length) out = java.util.Arrays.copyOf(out, math.max(2 * out.length, n + hi - lo))
          if (whole) { System.arraycopy(perm, lo, out, n, hi - lo); n += hi - lo }
          else {
            var s = lo
            while (s < hi) { if (slotDist2(s, q) <= r2) { out(n) = perm(s); n += 1 }; s += 1 }
          }
        } else {
          stack(top) = right(node); stack(top + 1) = node + 1; top += 2
        }
      }
    }
    java.util.Arrays.copyOf(out, n)
  }

  /** Number of points with dist(q, p) strictly below `r` (Definition 1), the
    * same count as [[KdTree.rangeCount]]. A node whose box lies strictly inside
    * the ball adds its size without visiting its points.
    */
  def rangeCount(q: Array[Double], r: Double): Int = {
    val r2    = r * r
    var c     = 0
    val stack = new Array[Int](height + 2)
    var top   = 0
    if (perm.nonEmpty) { stack(0) = 0; top = 1 }
    while (top > 0) {
      top -= 1
      val node = stack(top)
      if (boxDist2(node, q) < r2) {
        if (boxFar2(node, q) < r2) c += last(node) - first(node)
        else if (right(node) < 0) {
          var s = first(node)
          while (s < last(node)) { if (slotDist2(s, q) < r2) c += 1; s += 1 }
        } else {
          stack(top) = right(node); stack(top + 1) = node + 1; top += 2
        }
      }
    }
    c
  }

  /** Densities of the indexed points for [[denserNearest]]: `rho` (indexed by
    * point id) is read at the ids in `universe`; every other indexed point
    * gets -inf, so no query ever finds it. O(n + nodes).
    */
  def densities(rho: Array[Double], universe: Array[Int]): MaxRhoKdTree.Densities = {
    val in = new Array[Boolean](rho.length)
    universe.foreach(i => in(i) = true)
    val m    = perm.length
    val rhos = new Array[Double](m)
    var s = 0
    while (s < m) {
      val i = perm(s)
      // -inf, not NaN: math.max would spread a NaN up to the root.
      rhos(s) = if (in(i)) rho(i) else Double.NegativeInfinity
      s += 1
    }
    // Pre-order rows: every child comes after its parent, so one backward
    // pass sees both children before the parent.
    val maxRho = new Array[Double](first.length)
    var nd = first.length - 1
    while (nd >= 0) {
      if (right(nd) < 0) {
        var mx = Double.NegativeInfinity
        var t  = first(nd)
        while (t < last(nd)) { mx = math.max(mx, rhos(t)); t += 1 }
        maxRho(nd) = mx
      } else maxRho(nd) = math.max(maxRho(nd + 1), maxRho(right(nd)))
      nd -= 1
    }
    new MaxRhoKdTree.Densities(rhos, maxRho)
  }

  /** Nearest point with density strictly above `rhoQ` under `dens` (made by
    * this tree's [[densities]]), as `(id, distance)`; `(-1, +inf)` when there
    * is none.
    *
    * Among points at the same distance the smallest id wins, so the answer
    * does not depend on the tree's shape. Squared distances are summed in
    * coordinate order, as [[Pts.dist2]] does, so they are bit-identical to it;
    * and a box's distance never exceeds that of a point inside it, so pruning
    * boxes strictly farther than the best point loses no tie.
    */
  def denserNearest(q: Array[Double], rhoQ: Double, dens: MaxRhoKdTree.Densities): (Int, Double) = {
    val rhos   = dens.rhos
    val maxRho = dens.maxRho
    var bestId = -1
    var bestD2 = Double.PositiveInfinity
    // Explicit DFS stack of (node, squared box distance). Each pop leaves at
    // most one pending sibling per level, so height + 2 slots suffice.
    val stackNode = new Array[Int](height + 2)
    val stackD2   = new Array[Double](height + 2)
    var top = 0
    if (perm.nonEmpty && maxRho(0) > rhoQ) { stackNode(0) = 0; stackD2(0) = boxDist2(0, q); top = 1 }
    while (top > 0) {
      top -= 1
      val node = stackNode(top)
      if (stackD2(top) <= bestD2) {
        val r = right(node)
        if (r < 0) {
          var s = first(node)
          while (s < last(node)) {
            if (rhos(s) > rhoQ) {
              val d2 = slotDist2(s, q)
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

  /** Modelled footprint of the geometry alone, as [[MaxRhoKdTree.memBytes]]
    * without the densities.
    */
  def memBytes: Long = perm.length.toLong * (4L + 8L * d) + first.length.toLong * (12L + 16L * d)
}

object MaxRhoKdTree {

  /** Most ids a leaf holds. */
  val LeafSize = 16

  /** Leaf-order densities of a tree's points and the largest density under
    * each node; see [[MaxRhoKdTree.densities]].
    */
  final class Densities private[kdtree] (val rhos: Array[Double], val maxRho: Array[Double])

  /** Builds the tree over the points `ids` of `pts`.
    *
    * A node splits at the median position of the widest axis of its box, not
    * at a key value, so the tree stays balanced at depth `log2(m / LeafSize)`
    * however many points share coordinates. The box that picks the axis is
    * the parent's, cut at the parent's split; the stored boxes are the exact
    * bounds of each node's points, taken bottom-up from the leaves.
    */
  def build(pts: Pts, ids: Array[Int]): MaxRhoKdTree = {
    val d      = pts.d
    val m      = ids.length
    val perm   = ids.clone()
    val nNodes = nodeCount(m)
    val first  = new Array[Int](nNodes)
    val last   = new Array[Int](nNodes)
    val right  = new Array[Int](nNodes)
    val boxLo  = Array.fill(nNodes * d)(Double.PositiveInfinity)
    val boxHi  = Array.fill(nNodes * d)(Double.NegativeInfinity)
    var rows   = 0
    var height = 0

    // Bounds of the points in leaf slots lo until hi, into node nd's box.
    def bound(nd: Int, lo: Int, hi: Int): Unit = {
      var s = lo
      while (s < hi) {
        val o = perm(s) * d
        var j = 0
        while (j < d) {
          val x = pts.data(o + j)
          if (x < boxLo(nd * d + j)) boxLo(nd * d + j) = x
          if (x > boxHi(nd * d + j)) boxHi(nd * d + j) = x
          j += 1
        }
        s += 1
      }
    }

    // cutLo/cutHi: a box around perm(lo until hi), narrowed in place at each split.
    val cutLo = new Array[Double](d)
    val cutHi = new Array[Double](d)
    def node(lo: Int, hi: Int, depth: Int): Int = {
      val nd = rows
      rows += 1
      if (depth > height) height = depth
      first(nd) = lo
      last(nd) = hi
      if (hi - lo <= LeafSize) { right(nd) = -1; bound(nd, lo, hi) }
      else {
        var axis = 0
        var j    = 1
        while (j < d) { if (cutHi(j) - cutLo(j) > cutHi(axis) - cutLo(axis)) axis = j; j += 1 }
        val mid = (lo + hi) >>> 1
        KdTree.selectMedian(pts, perm, lo, hi, mid, axis)
        val split = pts.coord(perm(mid), axis)
        val hi0   = cutHi(axis)
        cutHi(axis) = split
        val l = node(lo, mid, depth + 1)
        cutHi(axis) = hi0
        val lo0 = cutLo(axis)
        cutLo(axis) = split
        val r = node(mid, hi, depth + 1)
        cutLo(axis) = lo0
        right(nd) = r
        j = 0
        while (j < d) {
          boxLo(nd * d + j) = math.min(boxLo(l * d + j), boxLo(r * d + j))
          boxHi(nd * d + j) = math.max(boxHi(l * d + j), boxHi(r * d + j))
          j += 1
        }
      }
      nd
    }
    if (m > 0) {
      bound(0, 0, m)
      System.arraycopy(boxLo, 0, cutLo, 0, d)
      System.arraycopy(boxHi, 0, cutHi, 0, d)
      node(0, m, 0)
    } else right(0) = -1

    val xs = new Array[Double](m * d)
    var s = 0
    while (s < m) { System.arraycopy(pts.data, perm(s) * d, xs, s * d, d); s += 1 }
    new MaxRhoKdTree(d, perm, xs, first, last, right, boxLo, boxHi, height)
  }

  /** Nodes of a tree over `m` points: leaves hold at most [[LeafSize]] ids. */
  def nodeCount(m: Int): Int =
    if (m <= LeafSize) 1 else 1 + nodeCount(m / 2) + nodeCount(m - m / 2)

  /** Modelled bytes of a tree over `m` points in `R^d` with its densities:
    * the leaf-order ids, coordinates and densities, plus per node its slot
    * range, right child, `maxRho` and bounding box.
    */
  def memBytes(m: Int, d: Int): Long =
    m.toLong * (4L + 8L * d + 8L) + nodeCount(m).toLong * (12L + 8L + 16L * d)
}
