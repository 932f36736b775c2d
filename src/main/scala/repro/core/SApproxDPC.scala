package repro.core

import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** S-Approx-DPC (§5): grid sampling + cell-based clustering.
  *
  * The grid pass [[CellPass]] on a grid `G'` of side `eps * dcut / sqrt(d)`,
  * where one deterministic *picked* point per cell (its first member, the
  * smallest id) does all the work: it alone gets its exact density, so it is
  * the cell's `p*`, and `N(c)` comes from its range search. Non-picked points
  * depend on their cell's picked point (distance at most `eps * dcut`, and
  * `rho_min` does not apply to them).
  *
  * Picked dependents: phase 1, the pass, picks a denser picked point in
  * `N(c)` (bound `(1+eps) * dcut`); the residual roots `P'_pick` form
  * *temporal clusters* whose radii prune candidates via the triangle
  * inequality in phase 2. If `|P'_pick|^2` exceeds O(n), the paper's fallback
  * — Approx-DPC's exact dependent search over the picked set — kicks in. It
  * searches the pass's [[repro.kdtree.MaxRhoKdTree]], with densities attached
  * for the picked points only.
  */
object SApproxDPC extends DPCAlgorithm {
  override val name = "S-Approx-DPC"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = Run(spark) { run =>
    val dcut = params.dcut
    val eps  = params.epsilon
    val pass = CellPass.run(run, pts, eps * dcut / math.sqrt(pts.d.toDouble), dcut, firstOnly = true,
      eps * dcut, (1 + eps) * dcut)
    val picked = pass.pstar
    val pPrime = pass.undecided
    run.delta {
      if (pPrime.length.toLong * pPrime.length > 4L * pts.n)
        // Fallback of §5: Approx-DPC's exact dependent search over the picked set.
        ExactDependents.search(spark, pass.tree, pts, pass.rho, picked, pPrime, pass.depId, pass.delta)
      else if (pPrime.nonEmpty) temporalClusters(pts, pass.rho, picked, pPrime, pass.depId, pass.delta)
    }
    new DPCResult(pass.rho, pass.depId, pass.delta, run.times, pass.memBytes + 8L * picked.length)
  }

  /** Phase 2: sets `depId`/`delta` of the roots `pPrime` from temporal
    * clusters + triangle-inequality pruning (driver; the loop is
    * O(|P'_pick|^2 + |P'_pick| * |G'|), both bounded by O(n)).
    */
  private def temporalClusters(
      pts: Pts, rho: Array[Double], picked: Array[Int], pPrime: Array[Int],
      depId: Array[Int], delta: Array[Double]
  ): Unit = {
    // children lists of the picked-point dependency forest
    val children = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    picked.foreach { pi =>
      val dep = depId(pi)
      if (dep >= 0) children.getOrElseUpdate(dep, mutable.ArrayBuffer.empty) += pi
    }
    val memberOf = new Array[Array[Int]](pPrime.length) // temporal cluster members (incl. root)
    val radius   = new Array[Double](pPrime.length)
    var ri = 0
    while (ri < pPrime.length) {
      val root  = pPrime(ri)
      val buf   = new mutable.ArrayBuilder.ofInt
      val stack = mutable.ArrayDeque[Int](root)
      var rmax  = 0.0
      while (stack.nonEmpty) {
        val x = stack.removeLast()
        buf += x
        val dd = pts.dist(root, x)
        if (dd > rmax) rmax = dd
        children.get(x).foreach(_.foreach(stack.append))
      }
      memberOf(ri) = buf.result()
      radius(ri) = rmax
      ri += 1
    }
    // p' = nearest root with higher density; then scan unpruned clusters.
    ri = 0
    while (ri < pPrime.length) {
      val pi = pPrime(ri)
      var bBest = Double.PositiveInfinity
      var bId   = -1
      var rj = 0
      while (rj < pPrime.length) {
        val pj = pPrime(rj)
        if (rho(pj) > rho(pi)) {
          val dd = pts.dist(pi, pj)
          if (dd < bBest) { bBest = dd; bId = pj }
        }
        rj += 1
      }
      if (bId >= 0) {
        var bestId = bId
        var bestD  = bBest
        rj = 0
        while (rj < pPrime.length) {
          val pj = pPrime(rj)
          if (rho(pj) > rho(pi) && pts.dist(pi, pj) - radius(rj) <= bBest) {
            val mems = memberOf(rj)
            var mIdx = 0
            while (mIdx < mems.length) {
              val q = mems(mIdx)
              if (rho(q) > rho(pi)) {
                val dd = pts.dist(pi, q)
                if (dd < bestD) { bestD = dd; bestId = q }
              }
              mIdx += 1
            }
          }
          rj += 1
        }
        depId(pi) = bestId
        delta(pi) = bestD
      } else {
        depId(pi) = -1
        delta(pi) = Double.PositiveInfinity // global picked density peak
      }
      ri += 1
    }
  }
}
