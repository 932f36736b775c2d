package repro.core

import org.apache.spark.sql.SparkSession
import repro.rtree.RTree

/** The `R-tree + Scan` baseline: densities via range counting on a bulk-loaded
  * R-tree (alleviating the rho phase), dependent points still via Scan's
  * quadratic sorted scan — exactly the combination the paper evaluates.
  */
object RTreeScanDPC extends DPCAlgorithm {
  override val name = "R-tree + Scan"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = Run(spark) { run =>
    val n    = pts.n
    val dcut = params.dcut

    val tree = run.rho(new RTree(pts).buildAll())
    val rho = run.rho(Density.rho(spark, n, Par.indexed(spark, n)) { () =>
      // rangeCount includes the query point itself (distance 0): subtract it.
      i => tree.rangeCount(pts.point(i), dcut) - 1
    })

    val (depId, delta) = run.delta(ScanDependents.compute(spark, pts, rho))
    new DPCResult(rho, depId, delta, run.times, tree.memBytes)
  }
}
