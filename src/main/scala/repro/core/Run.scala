package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import scala.reflect.ClassTag

/** The frame of one DPC run: what its tasks share, the clock of its two
  * phases (Table 6: the density phase rho, the dependent phase delta), and the
  * release of every share when the run ends. A phase may be several blocks;
  * its time is their sum. What the body does outside both is not timed.
  */
final class Run private (val spark: SparkSession) {
  private val shares = new java.util.IdentityHashMap[Any, Broadcast[_]]
  private val ns     = new Array[Long](2) // rho, delta

  /** A broadcast of `v`, made on the first call with this object (`eq`) and
    * returned again later in the run, so phases that read one object ship it
    * once. It lives until the run ends.
    */
  def share[T: ClassTag](v: T): Broadcast[T] =
    shares.computeIfAbsent(v, _ => spark.sparkContext.broadcast(v)).asInstanceOf[Broadcast[T]]

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

  /** `body` in a new run. Every share of the run is destroyed when `body`
    * returns or throws, also when one of its tasks failed.
    */
  def apply[T](spark: SparkSession)(body: Run => T): T = {
    val run = new Run(spark)
    try body(run) finally run.shares.values.forEach(_.destroy())
  }
}
