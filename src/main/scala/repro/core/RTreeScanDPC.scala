package repro.core

import org.apache.spark.sql.SparkSession
import repro.rtree.RTree

/** The `R-tree + Scan` baseline: densities via range counting on a bulk-loaded
  * R-tree (alleviating the rho phase), dependent points still via Scan's
  * quadratic sorted scan — exactly the combination the paper evaluates.
  */
object RTreeScanDPC extends DPCAlgorithm {
  override val name = "R-tree + Scan"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = {
    val n = pts.n

    val t0   = System.nanoTime()
    val tree = new RTree(pts).buildAll()
    // The tree holds the points, so they are shipped once, inside it.
    val bcTree = spark.sparkContext.broadcast(tree)
    val groups = Par.indexed(spark, n)
    val rho = Par.scatter(n, groups, Par.mapGroups(spark, groups) { idxs =>
      val t   = bcTree.value
      val p   = t.pts
      val out = new Array[Double](idxs.length)
      var k = 0
      while (k < idxs.length) {
        val i = idxs(k)
        // rangeCount includes the query point itself (distance 0): subtract it.
        val cnt = t.rangeCount(p.point(i), params.dcut) - 1
        out(k) = cnt + Jitter.frac(i)
        k += 1
      }
      out
    })
    val t1 = System.nanoTime()

    val (depId, delta) = ScanDependents.compute(spark, pts, rho)
    val t2 = System.nanoTime()
    val mem = tree.memBytes
    bcTree.destroy()

    new DPCResult(rho, depId, delta,
      PhaseTimes((t1 - t0) / 1000000L, (t2 - t1) / 1000000L), mem)
  }
}
