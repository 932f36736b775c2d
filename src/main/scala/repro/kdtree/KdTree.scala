package repro.kdtree

import repro.core.Pts

/** In-memory kd-tree over a [[Pts]] set (Bentley 1975).
  *
  * Serves Ex-DPC's dependent-point phase, which rebuilds "an optimal kd-tree
  * incrementally" in density order: incremental [[insert]] and bounded
  * nearest-neighbour search ([[nearest]]). A balanced bulk build
  * ([[buildFrom]], median split, cycling axes) and a strict [[rangeCount]]
  * remain for the benchmark's layer timings; every density phase counts on
  * [[MaxRhoKdTree]] instead.
  *
  * Layout is flat, one point per node: node `k` is row `k` of the arrays
  * `id`, `axis`, `left` and `right` (child rows, -1 for none), and its point's
  * coordinates are copied to `xs(k * d until (k + 1) * d)`. A bulk build lays
  * the nodes out in pre-order, so the root is row 0; [[insert]] appends, so in
  * an incrementally built tree node order is insertion order. Searches are
  * loops: they step to the near child and keep pending far children on an
  * explicit stack that starts small and doubles when full, so a degenerate
  * tree (e.g. a chain of duplicates) costs time, not call depth. They visit
  * nodes in the order a recursive search (near child first) would.
  *
  * Searches are re-entrant (state lives in the call frame), so a single tree
  * broadcast to Spark tasks can be queried concurrently.
  */
final class KdTree(val pts: Pts) extends Serializable {

  private val d = pts.d

  private var id    = new Array[Int](0)
  private var axis  = new Array[Int](0)
  private var left  = new Array[Int](0)
  private var right = new Array[Int](0)
  private var xs    = new Array[Double](0)
  private var count0 = 0

  /** Number of points currently in the tree. */
  def size: Int = count0

  /** Balanced build over the given point ids (previous contents discarded). */
  def buildFrom(idsIn: Array[Int]): this.type = {
    val work = idsIn.clone()
    count0 = 0
    resize(work.length)
    buildRec(work, 0, work.length, 0)
    this
  }

  /** Balanced build over all points of the underlying set. */
  def buildAll(): this.type = buildFrom(Array.tabulate(pts.n)(identity))

  /** Builds a(lo until hi) as the subtree at the next free row; returns that
    * row, or -1 when the range is empty. Depth is at most log2(n) + 1.
    */
  private def buildRec(a: Array[Int], lo: Int, hi: Int, depth: Int): Int = {
    if (lo >= hi) return -1
    val ax  = depth % d
    val mid = (lo + hi) >>> 1
    KdTree.selectMedian(pts, a, lo, hi, mid, ax)
    val node = newNode(a(mid), ax)
    left(node) = buildRec(a, lo, mid, depth + 1)
    right(node) = buildRec(a, mid + 1, hi, depth + 1)
    node
  }

  /** Gives the node arrays room for `cap` rows, keeping the first rows. */
  private def resize(cap: Int): Unit = {
    id = java.util.Arrays.copyOf(id, cap)
    axis = java.util.Arrays.copyOf(axis, cap)
    left = java.util.Arrays.copyOf(left, cap)
    right = java.util.Arrays.copyOf(right, cap)
    xs = java.util.Arrays.copyOf(xs, cap * d)
  }

  /** Appends a childless node for point `p`; returns its row. */
  private def newNode(p: Int, ax: Int): Int = {
    if (count0 == id.length) resize(math.max(16, 2 * count0))
    val k = count0
    id(k) = p
    axis(k) = ax
    left(k) = -1
    right(k) = -1
    System.arraycopy(pts.data, p * d, xs, k * d, d)
    count0 += 1
    k
  }

  /** Insert one point; axis cycles with depth, no rebalancing (paper §3).
    * A key equal to the node's goes right.
    */
  def insert(p: Int): Unit = {
    if (count0 == 0) { newNode(p, 0); return }
    var cur = 0
    while (true) {
      val ax     = axis(cur)
      val goLeft = pts.coord(p, ax) < xs(cur * d + ax)
      val next   = if (goLeft) left(cur) else right(cur)
      if (next < 0) {
        val child = newNode(p, (ax + 1) % d)
        if (goLeft) left(cur) = child else right(cur) = child
        return
      }
      cur = next
    }
  }

  /** Squared distance from node `k`'s point to `q`, summed in coordinate
    * order exactly as [[Pts.dist2To]] does.
    */
  @inline private def dist2(xs: Array[Double], k: Int, q: Array[Double]): Double = {
    var s = 0.0
    var j = 0
    val o = k * d
    while (j < d) { val t = xs(o + j) - q(j); s += t * t; j += 1 }
    s
  }

  /** Number of points with dist(q, p) strictly below `r` (Definition 1). */
  def rangeCount(q: Array[Double], r: Double): Int = {
    val r2    = r * r
    val xs    = this.xs
    val axis  = this.axis
    val left  = this.left
    val right = this.right
    var stack = new Array[Int](KdTree.StackInit)
    var top   = 0
    var c     = 0
    var nd    = if (count0 > 0) 0 else -1
    while (nd >= 0) {
      if (dist2(xs, nd, q) < r2) c += 1
      val ax   = axis(nd)
      val diff = q(ax) - xs(nd * d + ax)
      val far  = if (diff < 0) (if (-diff < r) right(nd) else -1) else (if (diff < r) left(nd) else -1)
      if (far >= 0) {
        if (top == stack.length) stack = java.util.Arrays.copyOf(stack, 2 * top)
        stack(top) = far
        top += 1
      }
      nd = if (diff < 0) left(nd) else right(nd)
      if (nd < 0 && top > 0) { top -= 1; nd = stack(top) }
    }
    c
  }

  /** Nearest neighbour of `q` in the tree, with an optional initial distance
    * bound for pruning. Returns `(-1, +inf)` when the tree is empty or nothing
    * is within the bound. Among equidistant points the first one visited wins:
    * the near child is searched before the far one.
    */
  def nearest(q: Array[Double], bound: Double = Double.PositiveInfinity): (Int, Double) = {
    var bestId = -1
    var bestD2 = if (bound.isInfinity) Double.PositiveInfinity else bound * bound
    val xs    = this.xs
    val axis  = this.axis
    val left  = this.left
    val right = this.right
    // A pending far child waits with the squared distance from q to its
    // splitting plane, and is searched only if that is still below the best
    // distance once the near subtree is done.
    var stackNode = new Array[Int](KdTree.StackInit)
    var stackD2   = new Array[Double](KdTree.StackInit)
    var top       = 0
    var nd        = if (count0 > 0) 0 else -1
    while (nd >= 0) {
      val d2 = dist2(xs, nd, q)
      if (d2 < bestD2) { bestD2 = d2; bestId = id(nd) }
      val ax    = axis(nd)
      val diff  = q(ax) - xs(nd * d + ax)
      val far   = if (diff < 0) right(nd) else left(nd)
      val farD2 = diff * diff
      if (far >= 0 && farD2 < bestD2) {
        if (top == stackNode.length) {
          stackNode = java.util.Arrays.copyOf(stackNode, 2 * top)
          stackD2 = java.util.Arrays.copyOf(stackD2, 2 * top)
        }
        stackNode(top) = far
        stackD2(top) = farD2
        top += 1
      }
      nd = if (diff < 0) left(nd) else right(nd)
      while (nd < 0 && top > 0) {
        top -= 1
        if (stackD2(top) < bestD2) nd = stackNode(top)
      }
    }
    if (bestId < 0) (-1, Double.PositiveInfinity) else (bestId, math.sqrt(bestD2))
  }

  /** Modelled footprint: per node, four ints (id, axis, two child rows) and
    * the d copied coordinates.
    */
  def memBytes: Long = count0.toLong * (16L + 8L * d)
}

object KdTree {

  /** Initial slots of a search's stack; it doubles when full. */
  private val StackInit = 64

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
