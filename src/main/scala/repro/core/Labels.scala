package repro.core

/** Noise / center selection and cluster-label propagation (§2.1 step 4).
  *
  * Shared verbatim by all algorithms (the paper: "the label propagation
  * operation is already efficient and common to our algorithms").
  *
  * Conventions: label `-1` = noise, `-2` = unreachable (dependency chain ends
  * at a non-center root — only possible when the global peak is itself noise),
  * `0..k-1` = cluster of the respective center. A point with `rho = NaN`
  * (S-Approx-DPC's non-picked points carry no density) is never noise.
  */
object Labels {

  /** Noise test per Definition 4; NaN densities are exempt. */
  @inline def isNoise(rho: Double, rhoMin: Double): Boolean = rho < rhoMin

  /** Indices of cluster centers (Definition 5), in ascending order. */
  def centers(res: DPCResult, rhoMin: Double, deltaMin: Double): Array[Int] =
    (0 until res.n).filter(i => !isNoise(res.rho(i), rhoMin) && res.delta(i) >= deltaMin).toArray

  /** Propagate labels down the dependency forest; returns a label per point. */
  def assign(res: DPCResult, rhoMin: Double, deltaMin: Double): Array[Int] = {
    val n      = res.n
    val UNSEEN = Int.MinValue
    val labels = Array.fill(n)(UNSEEN)
    val cs     = centers(res, rhoMin, deltaMin)
    var k = 0
    while (k < cs.length) { labels(cs(k)) = k; k += 1 }

    val path = new Array[Int](n)
    var i = 0
    while (i < n) {
      if (labels(i) == UNSEEN) {
        var top = 0
        var j   = i
        // Walk up the dependency chain to a labelled point or a root.
        while (labels(j) == UNSEEN && res.depId(j) >= 0 && top < n) {
          path(top) = j; top += 1
          j = res.depId(j)
        }
        val lbl = if (labels(j) != UNSEEN) labels(j) else -2
        if (labels(j) == UNSEEN) labels(j) = lbl
        while (top > 0) { top -= 1; labels(path(top)) = lbl }
      }
      i += 1
    }
    // Noise overrides cluster membership (Definition 4).
    i = 0
    while (i < n) {
      if (isNoise(res.rho(i), rhoMin)) labels(i) = -1
      i += 1
    }
    labels
  }
}

/** Helpers for choosing `delta_min` the way a user reads the decision graph:
  * pick the threshold separating the k points with outstanding dependent
  * distances from the rest (Example 1).
  */
object DecisionGraph {

  /** A `delta_min` yielding exactly `k` centers among non-noise points of an
    * exact result: midway between the k-th and (k+1)-th largest deltas.
    * Clamped above `dcut` as Definition 5 requires.
    */
  def deltaMinForK(res: DPCResult, rhoMin: Double, k: Int, dcut: Double): Double = {
    require(k >= 1, s"k ($k) must be at least 1")
    val deltas = (0 until res.n)
      .filter(i => !Labels.isNoise(res.rho(i), rhoMin))
      .map(res.delta)
      .sorted(Ordering[Double].reverse)
    require(deltas.nonEmpty, "no non-noise points")
    val t =
      if (deltas.length <= k) math.nextDown(deltas.last)
      else {
        val hi = deltas(k - 1)
        val lo = deltas(k)
        if (hi.isInfinity) {
          if (lo.isInfinity) lo else lo + math.max(1.0, lo * 0.5)
        } else if (hi > lo) (hi + lo) / 2.0
        else math.nextDown(hi) // ties: best effort
      }
    math.max(t, math.nextUp(dcut))
  }
}

/** Rand index over two flat labelings (contingency-table formulation, exact,
  * O(n + #distinct label pairs) — no pair enumeration).
  */
object RandIndex {
  def of(a: Array[Int], b: Array[Int]): Double = {
    require(a.length == b.length, "label arrays differ in length")
    val n = a.length
    if (n < 2) return 1.0
    val joint = scala.collection.mutable.HashMap.empty[Long, Long]
    val ca    = scala.collection.mutable.HashMap.empty[Int, Long]
    val cb    = scala.collection.mutable.HashMap.empty[Int, Long]
    var i = 0
    while (i < n) {
      val key = (a(i).toLong << 32) | (b(i).toLong & 0xffffffffL)
      joint.update(key, joint.getOrElse(key, 0L) + 1)
      ca.update(a(i), ca.getOrElse(a(i), 0L) + 1)
      cb.update(b(i), cb.getOrElse(b(i), 0L) + 1)
      i += 1
    }
    def c2(x: Long): Double = x.toDouble * (x - 1).toDouble / 2.0
    val sumIJ = joint.valuesIterator.map(c2).sum
    val sumA  = ca.valuesIterator.map(c2).sum
    val sumB  = cb.valuesIterator.map(c2).sum
    val total = c2(n.toLong)
    (total - sumA - sumB + 2 * sumIJ) / total
  }
}
