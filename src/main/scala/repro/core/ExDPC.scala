package repro.core

import org.apache.spark.sql.SparkSession
import repro.kdtree.KdTree

/** Ex-DPC (§3): the exact algorithm.
  *
  * Densities: one kd-tree range count per point, parallelized across Spark
  * tasks with dynamic oversubscription (the paper's
  * `omp parallel for schedule(dynamic)`).
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
    val n = pts.n

    val t0   = System.nanoTime()
    val tree = new KdTree(pts).buildAll()
    // The tree holds the points, so they are shipped once, inside it.
    val bcTree = spark.sparkContext.broadcast(tree)
    val groups = Par.indexed(spark, n)
    val rho = Par.scatter(n, groups, Par.mapGroups(spark, groups) { idxs =>
      val t   = bcTree.value
      val p   = t.pts
      val q   = new Array[Double](p.d)
      val out = new Array[Double](idxs.length)
      var k = 0
      while (k < idxs.length) {
        val i = idxs(k)
        System.arraycopy(p.data, i * p.d, q, 0, p.d)
        val cnt = t.rangeCount(q, params.dcut) - 1 // exclude the point itself
        out(k) = cnt + Jitter.frac(i)
        k += 1
      }
      out
    })
    val memDensity = tree.memBytes
    bcTree.destroy()
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
      math.max(memDensity, inc.memBytes))
  }
}
