package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cfsfdp.CFSFDPA
import repro.core._
import repro.data.{DatasetSpec, Datasets, PointGen}
import repro.lsh.LSHDDP

/** One measured algorithm: `key` prefixes its metric names. */
final case class Algo(key: String, impl: DPCAlgorithm)

object Algo {
  /** The paper's three algorithms, run on every workload's full input. */
  val paper: Seq[Algo] =
    Seq(Algo("exdpc", ExDPC), Algo("approxdpc", ApproxDPC), Algo("sapproxdpc", SApproxDPC))

  /** The four baselines, run on every workload's baseline input. */
  val baselines: Seq[Algo] = Seq(
    Algo("scan", ScanDPC), Algo("rtreescan", RTreeScanDPC),
    Algo("lshddp", LSHDDP), Algo("cfsfdpa", CFSFDPA)
  )

  val all: Seq[Algo] = paper ++ baselines
}

/** A benchmark workload: a `Datasets` stand-in at a fixed size, regenerated
  * from the benchmark seed.
  *
  * The mixture parameters (`centerSeed`, `sigmas`, `noise`, `sampleSeed`)
  * repeat those inside the stand-in's generator, which fixes its own seed;
  * seed 0 therefore reproduces `spec.generate` exactly, and seed `s` moves only
  * the sampling seed, so the clusters stay where the stand-in puts them.
  *
  * @param baselineN points the quadratic baselines run on: the first
  *                  `baselineN` ids of the input (all of it when equal to `n`)
  */
final case class Workload(
    name: String,
    spec: DatasetSpec,
    n: Int,
    eps: Double,
    baselineN: Int,
    centerSeed: Long,
    sigmas: Array[Double],
    noise: Double,
    sampleSeed: Long
) {
  def generate(spark: SparkSession, seed: Long): DataFrame = {
    val centers = PointGen.gridCenters(spec.k, spec.d, spec.domain, centerSeed)
    PointGen.mixture(spark, n, spec.d, centers, sigmas, noise, spec.domain, sampleSeed + 1000L * seed)
  }

  /** Noise threshold for an input of `m` points, scaled as `Harness.prepare` does. */
  def rhoMin(m: Int): Double = math.max(1.0, spec.rhoMin * m.toDouble / spec.defaultN)
}

object Workloads {
  val all: Seq[Workload] = Seq(
    // Larger n, low d: index build, Ex-DPC's sequential dependent loop and
    // Approx-DPC's exact fallback do most of the paper algorithms' work.
    Workload("airline-3d-75k", Datasets.airline, n = 75000, eps = 0.8, baselineN = 10000,
      centerSeed = 51L, sigmas = Array.tabulate(20)(i => 2000.0 + 220.0 * (i % 6)),
      noise = 0.01, sampleSeed = 52L),
    // Small n: fixed Spark overhead is most of each paper algorithm's run; the
    // only workload whose baselines run on the full input.
    Workload("syn-2d-20k-all", Datasets.syn(0.03), n = 20000, eps = 1.0, baselineN = 20000,
      centerSeed = 11L, sigmas = Array.tabulate(13)(i => 1500.0 + 150.0 * (i % 5)),
      noise = 0.03, sampleSeed = 21L)
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** A cached input with its Ex-DPC ground truth and the thresholds derived
  * from it, prepared the way `Harness.prepare` does.
  */
final class Input(val df: DataFrame, val params: DPCParams, val truth: DPCResult, val labels: Array[Int]) {
  def n: Int = truth.n
}

object Input {
  def prepare(spark: SparkSession, df: DataFrame, w: Workload): Input = {
    df.cache().count()
    val pts    = Pts.fromDF(df)
    val base   = DPCParams(dcut = w.spec.dcut, rhoMin = w.rhoMin(pts.n), epsilon = w.eps)
    val ex     = ExDPC.run(spark, pts, base)
    val params = base.copy(deltaMin = DecisionGraph.deltaMinForK(ex, base.rhoMin, w.spec.k, base.dcut))
    new Input(df, params, ex, Labels.assign(ex, params.rhoMin, params.deltaMin))
  }
}
