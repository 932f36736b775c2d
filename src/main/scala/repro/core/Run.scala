package repro.core

import org.apache.spark.sql.SparkSession

/** The frame of one DPC run: its session and the clock of its two phases
  * (Table 6: the density phase rho, the dependent phase delta). A phase may be
  * several blocks; its time is their sum. What the body does outside both is
  * not timed.
  */
final class Run private (val spark: SparkSession) {
  private val ns = new Array[Long](2) // rho, delta

  /** `body`, timed as part of the density phase. */
  def rho[T](body: => T): T = timed(0)(body)

  /** `body`, timed as part of the dependent phase. */
  def delta[T](body: => T): T = timed(1)(body)

  /** The time spent so far in each phase, truncated to whole ms. */
  def times: PhaseTimes = PhaseTimes(ns(0) / 1000000L, ns(1) / 1000000L)

  private def timed[T](phase: Int)(body: => T): T = {
    val t0  = System.nanoTime()
    val out = body
    ns(phase) += System.nanoTime() - t0
    out
  }
}

object Run {

  /** `body` in a new run. */
  def apply[T](spark: SparkSession)(body: Run => T): T = body(new Run(spark))
}
