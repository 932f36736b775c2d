package repro.core

import org.apache.spark.sql.SparkSession
import repro.kdtree.{KdTree, MaxRhoKdTree}

/** Ex-DPC (§3): the exact algorithm.
  *
  * Densities: one range count per point on a static [[MaxRhoKdTree]] through
  * [[Density]], parallelized across Spark tasks with dynamic oversubscription
  * (the paper's `omp parallel for schedule(dynamic)`).
  *
  * Dependent points: the kd-tree is destroyed and rebuilt *incrementally* in
  * descending density order — when point p is processed the tree holds exactly
  * the points denser than p, so a plain NN search returns the true dependent
  * point. This loop is inherently sequential (each step mutates the tree) and
  * runs on the driver — the very limitation the paper's thread-scaling
  * experiment demonstrates.
  */
object ExDPC extends DPCAlgorithm {
  override val name = "Ex-DPC"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = {
    val n    = pts.n
    val dcut = params.dcut

    val t0     = System.nanoTime()
    val tree   = MaxRhoKdTree.build(pts, Array.range(0, n))
    val bcTree = spark.sparkContext.broadcast(tree)
    val bcPts  = spark.sparkContext.broadcast(pts)
    val rho = Density.rho(spark, n, Par.indexed(spark, n)) { () =>
      val t = bcTree.value
      val p = bcPts.value
      val q = new Array[Double](p.d)
      i => {
        System.arraycopy(p.data, i * p.d, q, 0, p.d)
        t.rangeCount(q, dcut) - 1 // exclude the point itself
      }
    }
    bcTree.destroy(); bcPts.destroy()
    val t1 = System.nanoTime()

    // Sequential incremental phase (driver = the single thread of §3).
    val order = Order.descending(rho)
    val inc   = new KdTree(pts)
    val depId = new Array[Int](n)
    val delta = new Array[Double](n)
    val q     = new Array[Double](pts.d)
    var r = 0
    while (r < n) {
      val i = order(r)
      if (r == 0) { depId(i) = -1; delta(i) = Double.PositiveInfinity }
      else {
        System.arraycopy(pts.data, i * pts.d, q, 0, pts.d)
        val (j, dd) = inc.nearest(q)
        depId(i) = j
        delta(i) = dd
      }
      inc.insert(i)
      r += 1
    }
    val t2 = System.nanoTime()

    new DPCResult(rho, depId, delta,
      PhaseTimes((t1 - t0) / 1000000L, (t2 - t1) / 1000000L),
      math.max(tree.memBytes, inc.memBytes))
  }
}
