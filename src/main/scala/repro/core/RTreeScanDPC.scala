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
    val n    = pts.n
    val dcut = params.dcut

    val t0   = System.nanoTime()
    val tree = new RTree(pts).buildAll()
    // The tree holds the points, so they are shipped once, inside it, for
    // both phases.
    val bcTree = spark.sparkContext.broadcast(tree)
    try {
      val rho = Density.rho(spark, n, Par.indexed(spark, n)) { () =>
        val t = bcTree.value
        // rangeCount includes the query point itself (distance 0): subtract it.
        i => t.rangeCount(t.pts.point(i), dcut) - 1
      }
      val t1 = System.nanoTime()

      val (depId, delta) = ScanDependents.compute(spark, () => bcTree.value.pts, rho)
      new DPCResult(rho, depId, delta, PhaseTimes.between(t0, t1, System.nanoTime()), tree.memBytes)
    } finally bcTree.destroy()
  }
}
