package repro.core

import org.apache.spark.sql.SparkSession

/** Approx-DPC (§4).
  *
  * The grid pass [[CellPass]] on a grid of side `dcut/sqrt(d)`, with every
  * member of every cell getting its exact density by the *joint range search*
  * of its cell. Its approximate dependents are O(1) per point: a non-`p*`
  * member depends on its cell's `p*` at distance `dcut`; a `p*` depends on
  * `p*(c')` of a neighbour cell whose minimum density exceeds its own, also
  * at `dcut`. Undecided points (the "stem" of the cluster trees) get their
  * *exact* dependent point via [[ExactDependents]] on the pass's tree — which
  * is what makes Theorem 4 (identical cluster centers to Ex-DPC) hold.
  */
object ApproxDPC extends DPCAlgorithm {
  override val name = "Approx-DPC"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = Run(spark) { run =>
    val dcut = params.dcut
    val pass = CellPass.run(run, pts, dcut / math.sqrt(pts.d.toDouble), dcut, firstOnly = false, dcut, dcut)
    run.delta(ExactDependents.search(spark, pass.tree, pts, pass.rho, Array.range(0, pts.n), pass.undecided, pass.depId, pass.delta))
    new DPCResult(pass.rho, pass.depId, pass.delta, run.times, pass.memBytes)
  }
}
