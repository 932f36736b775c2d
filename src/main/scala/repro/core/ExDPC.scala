package repro.core

import org.apache.spark.sql.SparkSession
import repro.kdtree.{KdTree, MaxRhoKdTree}

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
  * the kd-tree is destroyed and rebuilt *incrementally* in descending density
  * order — when point p is processed the tree holds exactly the points denser
  * than p, so a plain NN search returns the true dependent point, the one
  * with the smallest id among equidistant ones. The tree is the bucketed
  * [[KdTree]] (leaves of up to 16 points with boxes); the loop's order is the
  * paper's. This loop is inherently sequential (each step mutates the tree)
  * and runs on the driver — the very limitation the paper's thread-scaling
  * experiment demonstrates.
  */
object ExDPC extends DPCAlgorithm {
  override val name = "Ex-DPC"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = Run(spark) { run =>
    val n    = pts.n
    val d    = pts.d
    val dcut = params.dcut

    val tree = run.rho(MaxRhoKdTree.build(pts, Array.range(0, n)))
    val rho = run.rho(Density.rho(spark, n, Par.sliced(spark, tree.leafOrder)) { () =>
      val q = new Array[Double](d)
      i => {
        System.arraycopy(pts.data, i * d, q, 0, d)
        tree.rangeCount(q, dcut) - 1 // exclude the point itself
      }
    })

    // Sequential incremental phase (driver = the single thread of §3).
    val (depId, delta, inc) = run.delta {
      val order = Order.descending(rho)
      val inc   = new KdTree(pts)
      val depId = new Array[Int](n)
      val delta = new Array[Double](n)
      val q     = new Array[Double](d)
      var r = 0
      while (r < n) {
        val i = order(r)
        if (r == 0) { depId(i) = -1; delta(i) = Double.PositiveInfinity }
        else {
          System.arraycopy(pts.data, i * d, q, 0, d)
          val (j, dd) = inc.nearest(q)
          depId(i) = j
          delta(i) = dd
        }
        inc.insert(i)
        r += 1
      }
      (depId, delta, inc)
    }

    new DPCResult(rho, depId, delta, run.times, math.max(tree.memBytes, inc.memBytes))
  }
}
