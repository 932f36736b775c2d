package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.DatasetSpec

/** One measured algorithm run: accuracy vs the exact ground truth plus the
  * phase decomposition and modelled memory of Table 6 / Table 7.
  */
final case class RunStats(
    algo: String,
    randIndex: Double,
    densitySec: Double,
    dependentSec: Double,
    memMB: Double,
    nCenters: Int
) {
  def totalSec: Double = densitySec + dependentSec
}

/** A dataset instantiated with the thresholds the decision graph yields. */
final case class Prepared(
    spec: DatasetSpec,
    pts: Pts,
    params: DPCParams,
    exact: DPCResult,
    exactLabels: Array[Int]
)

/** Shared experiment plumbing for the table harnesses in [[Tables]]. */
object Harness {

  /** Generate the dataset, run Ex-DPC as ground truth, and derive `delta_min`
    * from its decision graph so the planted k clusters are selected — the way
    * the paper's users pick thresholds (Example 1).
    */
  def prepare(spark: SparkSession, spec: DatasetSpec, n: Int = 0): Prepared = {
    val pts = Pts.fromDF(spec.generate(spark, n))
    // rho_min is a density threshold: when running below the spec's full
    // cardinality (REPRO_SCALE), densities shrink proportionally, so the
    // noise threshold must shrink with them to keep the same noise set.
    val rhoMin = math.max(1.0, spec.rhoMin * pts.n.toDouble / spec.defaultN)
    val base   = DPCParams(dcut = spec.dcut, rhoMin = rhoMin)
    val ex   = ExDPC.run(spark, pts, base)
    val deltaMin = DecisionGraph.deltaMinForK(ex, rhoMin, spec.k, spec.dcut)
    val params   = base.copy(deltaMin = deltaMin)
    val labels   = Labels.assign(ex, params.rhoMin, params.deltaMin)
    Prepared(spec, pts, params, ex, labels)
  }

  /** Run one algorithm against a prepared dataset and measure it. `reps` runs
    * are taken and the one with the median total time kept (the lower middle
    * one for an even `reps`); results are identical across reps.
    */
  def measure(spark: SparkSession, prep: Prepared, algo: DPCAlgorithm, reps: Int = 1): RunStats = {
    val runs = (0 until math.max(1, reps)).map { _ =>
      System.gc()
      algo.run(spark, prep.pts, prep.params)
    }.sortBy(_.times.totalMs)
    val res = runs((runs.length - 1) / 2)
    val labels = Labels.assign(res, prep.params.rhoMin, prep.params.deltaMin)
    RunStats(
      algo = algo.name,
      randIndex = RandIndex.of(prep.exactLabels, labels),
      densitySec = res.times.densityMs / 1000.0,
      dependentSec = res.times.dependentMs / 1000.0,
      memMB = res.memBytes / 1024.0 / 1024.0,
      nCenters = Labels.centers(res, prep.params.rhoMin, prep.params.deltaMin).length
    )
  }

  /** Scale factor for dataset sizes: REPRO_SCALE env var (1.0 = full repo scale). */
  def scale: Double = sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(1.0)

  def scaled(n: Int): Int = math.max(500, (n * scale).toInt)
}
