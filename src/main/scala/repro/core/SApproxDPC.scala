package repro.core

import org.apache.spark.sql.SparkSession
import repro.grid.Grid
import repro.kdtree.KdTree

/** Per-cell output of S-Approx-DPC's parallel density phase. */
final case class PickedDensity(cell: Int, rho: Double, nbrs: Seq[Int])

/** S-Approx-DPC (§5): grid sampling + cell-based clustering.
  *
  * A grid `G'` with side `eps * dcut / sqrt(d)` is built; one deterministic
  * *picked* point per cell (smallest id) does all the work. Each picked point
  * gets its exact density from one kd-tree range search, which also yields
  * `N(c)`. Non-picked points simply depend on their cell's picked point
  * (distance at most `eps * dcut`, and `rho_min` does not apply to them).
  *
  * Picked dependents: phase 1 picks any denser picked point in `N(c)` (bound
  * `(1+eps) * dcut`); the residual roots `P'_pick` form *temporal clusters*
  * whose radii prune candidates via the triangle inequality in phase 2. If
  * `|P'_pick|^2` exceeds O(n), the paper's fallback — Approx-DPC's exact
  * dependent search over the picked set — kicks in.
  */
object SApproxDPC extends DPCAlgorithm {
  override val name = "S-Approx-DPC"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = {
    val n     = pts.n
    val dcut  = params.dcut
    val dcut2 = dcut * dcut
    val eps   = params.epsilon

    val t0   = System.nanoTime()
    val tree = new KdTree(pts).buildAll()
    val grid = new Grid(pts, eps * dcut / math.sqrt(pts.d.toDouble))

    // Deterministic pick: smallest point id per cell.
    val picked = grid.cells.map(_.min)

    val sc     = spark.sparkContext
    val bcPts  = sc.broadcast(pts)
    val bcTree = sc.broadcast(tree)
    val bcGrid = sc.broadcast(grid)
    val bcPick = sc.broadcast(picked)

    import spark.implicits._
    val costs = grid.cells.map(_.length.toDouble)
    val out = Par.mapBalanced[PickedDensity](spark, costs, sc.defaultParallelism) { cellIdxs =>
      val p  = bcPts.value
      val t  = bcTree.value
      val g  = bcGrid.value
      val pk = bcPick.value
      cellIdxs.iterator.map { c =>
        val pi = pk(c)
        val q  = p.point(pi)
        val r  = t.rangeSearch(q, dcut) // inclusive superset; strict-filter below
        var cnt = 0
        val nbrs = new java.util.HashSet[Integer]()
        var u = 0
        while (u < r.length) {
          val id = r(u)
          if (id != pi && p.dist2(pi, id) < dcut2) {
            cnt += 1
            if (g.cellOf(id) != c) nbrs.add(g.cellOf(id))
          }
          u += 1
        }
        val nb = new Array[Int](nbrs.size())
        val it = nbrs.iterator()
        var z = 0
        while (it.hasNext) { nb(z) = it.next().intValue(); z += 1 }
        PickedDensity(c, cnt + Jitter.frac(pi), nb.toIndexedSeq)
      }
    }

    val rho = Array.fill(n)(Double.NaN) // non-picked points carry no density
    val nbrsC = new Array[Array[Int]](grid.nCells)
    out.foreach { pd =>
      rho(picked(pd.cell)) = pd.rho
      nbrsC(pd.cell) = pd.nbrs.toArray
    }
    bcTree.destroy()
    val t1 = System.nanoTime()

    // --- Dependent points. ---
    val depId = new Array[Int](n)
    val delta = new Array[Double](n)
    java.util.Arrays.fill(depId, -1)

    // Non-picked points: their cell's picked point, distance <= eps * dcut.
    var c = 0
    while (c < grid.nCells) {
      val pi = picked(c)
      grid.cells(c).foreach { i =>
        if (i != pi) { depId(i) = pi; delta(i) = eps * dcut }
      }
      c += 1
    }

    // Phase 1: denser picked point in a neighbour cell, bound (1+eps)*dcut.
    val roots = new scala.collection.mutable.ArrayBuilder.ofInt
    c = 0
    while (c < grid.nCells) {
      val pi = picked(c)
      var chosen = -1
      var chosenRho = Double.NegativeInfinity
      val nbs = nbrsC(c)
      var z = 0
      while (z < nbs.length) {
        val pj = picked(nbs(z))
        if (rho(pj) > rho(pi) && rho(pj) > chosenRho) { chosenRho = rho(pj); chosen = pj }
        z += 1
      }
      if (chosen >= 0) { depId(pi) = chosen; delta(pi) = (1 + eps) * dcut }
      else roots += pi
      c += 1
    }
    val pPrime = roots.result()

    if (pPrime.length.toLong * pPrime.length > 4L * n) {
      // Fallback of §5: Approx-DPC's exact dependent search over the picked set.
      val exact = ExactDependents.compute(spark, pts, rho, picked, pPrime)
      exact.foreach { case (q, dep, dd) => depId(q) = dep; delta(q) = dd }
    } else if (pPrime.nonEmpty) {
      // Phase 2: temporal clusters + triangle-inequality pruning (driver; the
      // loop is O(|P'_pick|^2 + |P'_pick| * |G'|), both bounded by O(n)).
      // children lists of the picked-point dependency forest
      val children = scala.collection.mutable.HashMap.empty[Int, scala.collection.mutable.ArrayBuffer[Int]]
      picked.foreach { pi =>
        val dep = depId(pi)
        if (dep >= 0) children.getOrElseUpdate(dep, scala.collection.mutable.ArrayBuffer.empty) += pi
      }
      val memberOf = new Array[Array[Int]](pPrime.length) // temporal cluster members (incl. root)
      val radius   = new Array[Double](pPrime.length)
      var ri = 0
      while (ri < pPrime.length) {
        val root = pPrime(ri)
        val buf  = new scala.collection.mutable.ArrayBuilder.ofInt
        val stack = scala.collection.mutable.ArrayDeque[Int](root)
        var rmax = 0.0
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
    } else {
      // No roots means a cycle-free forest already complete — nothing to do.
    }
    val t2 = System.nanoTime()
    bcPts.destroy(); bcGrid.destroy(); bcPick.destroy()

    val mem = tree.memBytes + grid.memBytes +
      nbrsC.iterator.map(a => if (a == null) 0L else 4L * a.length).sum + 8L * grid.nCells
    new DPCResult(rho, depId, delta,
      PhaseTimes((t1 - t0) / 1000000L, (t2 - t1) / 1000000L), mem)
  }
}
