package repro.core

import org.apache.spark.sql.SparkSession
import repro.kdtree.MaxRhoKdTree

/** Ex-DPC (§3): the exact algorithm.
  *
  * Densities: one range count per point on a static [[MaxRhoKdTree]] through
  * [[Density]], as the paper's `omp parallel for schedule(dynamic)`: the
  * points are cut into more groups than cores, contiguous slices of the
  * tree's leaf order ([[Par.sliced]]), so the points of one group search the
  * same few subtrees, and one Spark task per core claims the next group as it
  * finishes the last. The tasks read the driver's points and tree in place.
  *
  * Dependent points (the delta phase: the density-order sort and this loop):
  * the paper rebuilds a kd-tree incrementally in descending density order,
  * so that it holds exactly the points denser than the current one. The
  * density phase's tree, with each node's largest density attached, prunes
  * its search to that same set (Bentley's semidynamic activation): each step
  * is one [[MaxRhoKdTree.denserNearest]], the smallest id among equidistant
  * denser points. The loop keeps the paper's order and runs as one group on
  * the driver, with no Spark job: the single thread of §3, Ex-DPC's limit in
  * the paper's thread-scaling experiment.
  */
object ExDPC extends DPCAlgorithm {
  override val name = "Ex-DPC"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = Run(spark) { run =>
    val n    = pts.n
    val d    = pts.d
    val dcut = params.dcut

    val all  = Array.range(0, n)
    val tree = run.rho(MaxRhoKdTree.build(pts, all))
    val rho = run.rho(Density.rho(spark, n, Par.sliced(spark, tree.leafOrder)) { () =>
      val q = new Array[Double](d)
      i => {
        System.arraycopy(pts.data, i * d, q, 0, d)
        tree.rangeCount(q, dcut) - 1 // exclude the point itself
      }
    })

    val depId = new Array[Int](n)
    val delta = new Array[Double](n)
    run.delta {
      val order = Order.descending(rho)
      Dependents.search(spark, pts, order, Array(all), depId, delta)(
        ExactDependents.kernel(tree, pts, rho, tree.densities(rho, all), order))
    }

    new DPCResult(rho, depId, delta, run.times, MaxRhoKdTree.memBytes(n, d))
  }
}
