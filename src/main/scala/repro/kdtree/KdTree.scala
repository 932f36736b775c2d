package repro.kdtree

import repro.core.Pts

/** In-memory bucketed kd-tree over a [[Pts]] set (Friedman, Bentley & Finkel,
  * TOMS 1977), kept up to date under single inserts as the bucketed trees of
  * Yesantharao, Wang, Dhulipala & Shun ("Parallel Batch-Dynamic kd-Trees",
  * 2021) are.
  *
  * No algorithm uses it: every density and dependent-point phase searches a
  * [[MaxRhoKdTree]]. It remains for the benchmark's layer timings, which
  * replay the paper's incremental Ex-DPC loop ([[insert]], bounded
  * nearest-neighbour search [[nearest]]) and time a balanced bulk build
  * ([[buildFrom]], median split on the widest axis of each node's box) and a
  * strict [[rangeCount]].
  *
  * Layout: a leaf holds up to [[MaxRhoKdTree.LeafSize]] points in one block of
  * pooled slots, `ids(b * LeafSize + s)` and their coordinates at
  * `xs((b * LeafSize + s) * d)`. Node `k` is one record of `2d + 1` doubles in
  * `box` (box lo, box hi, split key) and one of four ints in `link` (first
  * child row, the right child being the next row, or -1 for a leaf; split
  * axis; leaf block; points under the node). Boxes are exact: an insert grows
  * the box of every node on its path.
  *
  * A full leaf that gets one more point splits on the widest axis of its box,
  * at the midpoint, so both sides are non-empty; keys below it go left. A full
  * leaf whose points and new point are all one position does not split: it
  * keeps its count and, in its first slot, its smallest id, and a search
  * answers it from its box, whose distance is then the point distance bit for
  * bit. So 50k identical points make one leaf, not a 50k-deep chain.
  *
  * Searches are loops over an explicit stack of `height + 2` slots, so a
  * degenerate tree (e.g. a spine of sorted inserts) costs time, not call
  * depth. Searches keep their state in the call frame.
  */
final class KdTree(val pts: Pts) extends Serializable {
  import KdTree._

  private val d   = pts.d
  private val rec = 2 * d + 1 // doubles per node record: box lo, box hi, split key

  private var box    = new Array[Double](0)
  private var link   = new Array[Int](0)
  private var ids    = new Array[Int](0)
  private var xs     = new Array[Double](0)
  private var nodes  = 0
  private var blocks = 0
  private var height = 0 // depth of the deepest node; the root has depth 0

  /** Number of points currently in the tree. */
  def size: Int = if (nodes == 0) 0 else link(Count)

  /** Balanced build over the given point ids (previous contents discarded). */
  def buildFrom(idsIn: Array[Int]): this.type = {
    val work = idsIn.clone()
    nodes = 0
    blocks = 0
    height = 0
    if (work.nonEmpty) buildRec(work, 0, work.length, newNodes(1), 0)
    this
  }

  /** Balanced build over all points of the underlying set. */
  def buildAll(): this.type = buildFrom(Array.tabulate(pts.n)(identity))

  /** Builds a(lo until hi) into node `nd`: a leaf when it fits one, else a
    * split at the median position of the widest axis of its box. Depth is at
    * most log2(n / LeafSize) + 1.
    */
  private def buildRec(a: Array[Int], lo: Int, hi: Int, nd: Int, depth: Int): Unit = {
    if (depth > height) height = depth
    var s = lo
    while (s < hi) { grow(nd, a(s)); s += 1 }
    if (hi - lo <= LeafSize) {
      if (link(nd * Ints + Block) < 0) newBlock(nd)
      s = lo
      while (s < hi) { append(nd, a(s)); s += 1 }
    } else {
      val ax  = widestAxis(nd)
      val mid = (lo + hi) >>> 1
      MaxRhoKdTree.selectMedian(pts, a, lo, hi, mid, ax)
      val c = newNodes(2)
      split(nd, c, ax, pts.coord(a(mid), ax))
      link(nd * Ints + Count) = hi - lo
      buildRec(a, lo, mid, c, depth + 1)
      buildRec(a, mid, hi, c + 1, depth + 1)
    }
  }

  /** Appends `k` empty leaves (an empty box, no block yet); returns the
    * first row.
    */
  private def newNodes(k: Int): Int = {
    if (nodes + k > link.length / Ints) {
      val cap = math.max(16, 2 * (nodes + k))
      box = java.util.Arrays.copyOf(box, cap * rec)
      link = java.util.Arrays.copyOf(link, cap * Ints)
    }
    val first = nodes
    var nd    = first
    while (nd < first + k) {
      java.util.Arrays.fill(box, nd * rec, nd * rec + d, Double.PositiveInfinity)
      java.util.Arrays.fill(box, nd * rec + d, nd * rec + 2 * d, Double.NegativeInfinity)
      link(nd * Ints + Child) = -1
      link(nd * Ints + Block) = -1
      link(nd * Ints + Count) = 0
      nd += 1
    }
    nodes += k
    first
  }

  /** Gives leaf `nd` a fresh block of [[MaxRhoKdTree.LeafSize]] slots. */
  private def newBlock(nd: Int): Unit = {
    if (blocks == ids.length / LeafSize) {
      val cap = math.max(16, 2 * blocks)
      ids = java.util.Arrays.copyOf(ids, cap * LeafSize)
      xs = java.util.Arrays.copyOf(xs, cap * LeafSize * d)
    }
    link(nd * Ints + Block) = blocks
    blocks += 1
  }

  /** Makes leaf `nd` an internal node on `axis` at `key` with the leaves `c`
    * and `c + 1` as children; the left child takes over `nd`'s block, if any.
    */
  private def split(nd: Int, c: Int, axis: Int, key: Double): Unit = {
    link(c * Ints + Block) = link(nd * Ints + Block)
    link(nd * Ints + Block) = -1
    link(nd * Ints + Child) = c
    link(nd * Ints + Axis) = axis
    box(nd * rec + 2 * d) = key
  }

  /** Widens node `nd`'s box to hold point `p`. */
  private def grow(nd: Int, p: Int): Unit = {
    val o = nd * rec
    var j = 0
    while (j < d) {
      val x = pts.data(p * d + j)
      if (x < box(o + j)) box(o + j) = x
      if (x > box(o + d + j)) box(o + d + j) = x
      j += 1
    }
  }

  /** Axis along which node `nd`'s box is widest (the lowest on ties). */
  private def widestAxis(nd: Int): Int = {
    val o  = nd * rec
    var ax = 0
    var j  = 1
    while (j < d) {
      if (box(o + d + j) - box(o + j) > box(o + d + ax) - box(o + ax)) ax = j
      j += 1
    }
    ax
  }

  /** Puts point `p` in the next slot of leaf `nd`, which has room. */
  private def append(nd: Int, p: Int): Unit = {
    val s = link(nd * Ints + Block) * LeafSize + link(nd * Ints + Count)
    ids(s) = p
    System.arraycopy(pts.data, p * d, xs, s * d, d)
    link(nd * Ints + Count) += 1
  }

  /** Insert one point: it descends by the split keys, growing each box on its
    * path, into a leaf; no rebalancing (paper §3).
    */
  def insert(p: Int): Unit = {
    if (nodes == 0) newBlock(newNodes(1))
    var nd    = 0
    var depth = 0
    while (link(nd * Ints + Child) >= 0) {
      grow(nd, p)
      link(nd * Ints + Count) += 1
      val c = link(nd * Ints + Child)
      nd = if (pts.coord(p, link(nd * Ints + Axis)) < box(nd * rec + 2 * d)) c else c + 1
      depth += 1
    }
    grow(nd, p)
    val cnt = link(nd * Ints + Count)
    if (cnt < LeafSize) append(nd, p)
    else if (isPoint(nd)) {
      // One position: keep the count and the smallest id in the first slot.
      val s0 = link(nd * Ints + Block) * LeafSize
      if (cnt == LeafSize) {
        var s = s0 + 1
        while (s < s0 + LeafSize) { if (ids(s) < ids(s0)) ids(s0) = ids(s); s += 1 }
      }
      if (p < ids(s0)) ids(s0) = p
      link(nd * Ints + Count) = cnt + 1
    } else splitLeaf(nd, p, depth)
  }

  /** Whether node `nd`'s box is a single point. */
  private def isPoint(nd: Int): Boolean = {
    val o = nd * rec
    var j = 0
    while (j < d && box(o + j) == box(o + d + j)) j += 1
    j == d
  }

  /** Splits the full leaf `nd` (at `depth`) to take point `p`, which its box
    * already holds, at the midpoint of the box's widest side (its top if the
    * midpoint rounds to its bottom). The box is exact, so both sides are
    * non-empty. A leaf of one position goes whole to one side.
    */
  private def splitLeaf(nd: Int, p: Int, depth: Int): Unit = {
    val ax     = widestAxis(nd)
    val cnt    = link(nd * Ints + Count)
    val stored = if (cnt > LeafSize) 1 else cnt
    val s0     = link(nd * Ints + Block) * LeafSize
    val moved  = new Array[Int](stored + 1)
    System.arraycopy(ids, s0, moved, 0, stored)
    moved(stored) = p
    val lo  = box(nd * rec + ax)
    val hi  = box(nd * rec + d + ax)
    val mid = lo * 0.5 + hi * 0.5 // between lo and hi, with no overflow
    val key = if (mid > lo) mid else hi

    val c = newNodes(2)
    split(nd, c, ax, key)
    newBlock(c + 1)
    link(nd * Ints + Count) = cnt + 1
    if (depth + 1 > height) height = depth + 1
    var k = 0
    while (k <= stored) {
      val q     = moved(k)
      val child = if (pts.coord(q, ax) < key) c else c + 1
      grow(child, q)
      append(child, q)
      k += 1
    }
    if (cnt > LeafSize) {
      // The one-position leaf's entry is the first slot of whichever child got it.
      val dup = if (pts.coord(moved(0), ax) < key) c else c + 1
      link(dup * Ints + Count) = cnt
    }
  }

  /** Squared distance from `q` to node `nd`'s box (0 inside it). A point in
    * the box is never nearer: coordinate differences round monotonically. For
    * a box that is a single point it equals that point's distance bit for bit.
    */
  @inline private def boxDist2(nd: Int, q: Array[Double]): Double = {
    val o = nd * rec
    var s = 0.0
    var j = 0
    while (j < d) {
      val x   = q(j)
      val lo  = box(o + j)
      val hi  = box(o + d + j)
      val gap = if (x < lo) lo - x else if (x > hi) x - hi else 0.0
      s += gap * gap
      j += 1
    }
    s
  }

  /** Squared distance from slot `s`'s point to `q`, summed in coordinate
    * order exactly as [[Pts.dist2To]] does.
    */
  @inline private def slotDist2(s: Int, q: Array[Double]): Double = {
    var d2 = 0.0
    var j  = 0
    val o  = s * d
    while (j < d) { val t = xs(o + j) - q(j); d2 += t * t; j += 1 }
    d2
  }

  /** Number of points with dist(q, p) strictly below `r` (Definition 1),
    * visiting only nodes whose boxes reach strictly into the ball.
    */
  def rangeCount(q: Array[Double], r: Double): Int = {
    if (nodes == 0) return 0
    val r2    = r * r
    val stack = new Array[Int](height + 2)
    stack(0) = 0
    var top   = 1
    var c     = 0
    while (top > 0) {
      top -= 1
      val nd = stack(top)
      if (boxDist2(nd, q) < r2) {
        val cnt = link(nd * Ints + Count)
        val ch  = link(nd * Ints + Child)
        if (ch >= 0) { stack(top) = ch + 1; stack(top + 1) = ch; top += 2 }
        else if (cnt > LeafSize) c += cnt // one position, at its box's distance
        else {
          val s0 = link(nd * Ints + Block) * LeafSize
          var s  = s0
          while (s < s0 + cnt) { if (slotDist2(s, q) < r2) c += 1; s += 1 }
        }
      }
    }
    c
  }

  /** Nearest neighbour of `q` in the tree, with an optional initial distance
    * bound for pruning. Returns `(-1, +inf)` when the tree is empty or nothing
    * is strictly within the bound.
    *
    * Among equidistant points the smallest id wins, the rule of
    * `ExactDependents` and LSH-DDP, so the answer does not depend on the
    * tree's shape. The nearer child box is searched first, and a box is
    * pruned only when strictly farther than the best point, so no tie is lost.
    */
  def nearest(q: Array[Double], bound: Double = Double.PositiveInfinity): (Int, Double) = {
    if (nodes == 0) return (-1, Double.PositiveInfinity)
    var bestId = -1
    var bestD2 = if (bound.isInfinity) Double.PositiveInfinity else bound * bound
    val link   = this.link
    val ids    = this.ids
    // Each pop leaves at most one pending sibling per level on the stack.
    val stackNode = new Array[Int](height + 2)
    val stackD2   = new Array[Double](height + 2)
    stackNode(0) = 0
    stackD2(0) = boxDist2(0, q)
    var top = 1
    while (top > 0) {
      top -= 1
      val nd  = stackNode(top)
      val nd2 = stackD2(top)
      if (nd2 <= bestD2) {
        val c = link(nd * Ints + Child)
        if (c < 0) {
          val cnt = link(nd * Ints + Count)
          val s0  = link(nd * Ints + Block) * LeafSize
          if (cnt > LeafSize) {
            // One position: its box distance, its smallest id.
            if (nd2 < bestD2 || (nd2 == bestD2 && ids(s0) < bestId)) { bestD2 = nd2; bestId = ids(s0) }
          } else {
            var s = s0
            while (s < s0 + cnt) {
              val d2 = slotDist2(s, q)
              if (d2 < bestD2 || (d2 == bestD2 && ids(s) < bestId)) { bestD2 = d2; bestId = ids(s) }
              s += 1
            }
          }
        } else {
          val dl = boxDist2(c, q)
          val dr = boxDist2(c + 1, q)
          // Push the farther child first so that the nearer one is searched first.
          val leftNear = dl <= dr
          val dFar     = if (leftNear) dr else dl
          val dNear    = if (leftNear) dl else dr
          if (dFar <= bestD2) { stackNode(top) = if (leftNear) c + 1 else c; stackD2(top) = dFar; top += 1 }
          if (dNear <= bestD2) { stackNode(top) = if (leftNear) c else c + 1; stackD2(top) = dNear; top += 1 }
        }
      }
    }
    if (bestId < 0) (-1, Double.PositiveInfinity) else (bestId, math.sqrt(bestD2))
  }
}

object KdTree {

  /** Most points a leaf holds, unless they are all one position. */
  private final val LeafSize = MaxRhoKdTree.LeafSize

  /** Ints per node record and the offset of each field in it. */
  private final val Ints  = 4
  private final val Child = 0
  private final val Axis  = 1
  private final val Block = 2
  private final val Count = 3
}
