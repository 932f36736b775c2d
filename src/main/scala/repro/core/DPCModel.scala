package repro.core

import org.apache.spark.sql.SparkSession

/** Deterministic per-point density jitter.
  *
  * The paper assumes all local densities are distinct ("practically possible by
  * adding a random value in (0,1) to rho_i"); a total order makes the dependency
  * forest acyclic and dependent points unique. We use a splitmix-style hash of
  * the point index so every algorithm — and the DuckDB oracle — sees the same
  * tie-break.
  */
object Jitter {
  /** Fraction in (0,1), deterministic in `i`. */
  def frac(i: Int): Double = {
    var z = (i + 1).toLong * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^= (z >>> 31)
    ((z >>> 11).toDouble / (1L << 53).toDouble) * 0.9999999 + 1e-9
  }
}

/** Parameters of a DPC run.
  *
  * @param dcut           cutoff distance (Definition 1)
  * @param rhoMin         noise threshold (Definition 4)
  * @param deltaMin       cluster-center threshold (Definition 5), must exceed dcut
  * @param epsilon        S-Approx-DPC approximation parameter (cell side factor)
  * @param lshTables      LSH-DDP: number of compound hash tables M
  * @param lshLen         LSH-DDP: hash functions per compound hash L
  * @param lshWidthFactor LSH-DDP: bucket width w as a multiple of dcut
  */
final case class DPCParams(
    dcut: Double,
    rhoMin: Double = 0.0,
    deltaMin: Double = Double.PositiveInfinity,
    epsilon: Double = 1.0,
    lshTables: Int = 4,
    lshLen: Int = 2,
    lshWidthFactor: Double = 2.0
) {
  require(dcut > 0, "dcut must be positive")
  // Every density kernel compares squared distances with dcut^2.
  require(dcut * dcut > 0, s"dcut ($dcut) is so small that its square underflows to 0")
  require(!rhoMin.isNaN, "rhoMin (NaN) must be a number: no density is below NaN")
  // S-Approx-DPC's cells have side epsilon * dcut / sqrt(d): an infinite one
  // holds every point and gives every non-picked point delta = +inf.
  require(epsilon > 0 && !(epsilon * dcut).isInfinite,
    s"epsilon ($epsilon) must be positive, with epsilon * dcut ($dcut) finite")
  require(deltaMin > dcut, s"deltaMin ($deltaMin) must exceed dcut ($dcut) (Definition 5)")
  require(lshTables >= 1, s"lshTables ($lshTables) must be at least 1")
  require(lshLen >= 1, s"lshLen ($lshLen) must be at least 1")
  require(lshWidthFactor > 0 && !lshWidthFactor.isInfinite,
    s"lshWidthFactor ($lshWidthFactor) must be finite and positive")
}

/** Wall-clock decomposition mirroring Table 6: rho phase vs delta phase, as
  * [[Run]] times them.
  */
final case class PhaseTimes(densityMs: Long, dependentMs: Long) {
  def totalMs: Long = densityMs + dependentMs
}

/** Output of one DPC algorithm, before center selection / label propagation.
  *
  * @param rho      jittered local densities; `NaN` where the algorithm does not
  *                 define one (S-Approx-DPC's non-picked points)
  * @param depId    dependent point index, `-1` for the global density peak
  * @param delta    dependent distance, `+inf` for the global density peak
  * @param times    phase wall-clock decomposition
  * @param memBytes modelled byte footprint of the algorithm's data structures
  */
final class DPCResult(
    val rho: Array[Double],
    val depId: Array[Int],
    val delta: Array[Double],
    val times: PhaseTimes,
    val memBytes: Long
) extends Serializable {
  def n: Int = rho.length
}

/** Common interface of all seven evaluated algorithms. */
trait DPCAlgorithm {
  /** Display name, matching the paper's tables. */
  def name: String

  /** Compute densities and dependent points of `pts` under `params`. */
  def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult
}
