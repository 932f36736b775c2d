package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.sql.SparkSession

/** What the tasks of a [[Run]] read: a task closure carries only the key, and
  * `value` is the driver's own object, from the JVM-wide registry of [[Run]].
  * Read after its run has ended, it throws an `IllegalStateException`.
  */
final class Share[T] private[core] (val key: Long) extends Serializable {
  def value: T = Run.registry.get(key) match {
    case null => throw new IllegalStateException(s"share $key is not live: its run has ended")
    case v    => v.asInstanceOf[T]
  }
}

/** The frame of one DPC run: what its tasks share, the clock of its two
  * phases (Table 6: the density phase rho, the dependent phase delta), and the
  * release of every share when the run ends. A phase may be several blocks;
  * its time is their sum. What the body does outside both is not timed.
  */
final class Run private (val spark: SparkSession) {
  private val shares = new java.util.IdentityHashMap[Any, Share[_]]
  private val ns     = new Array[Long](2) // rho, delta

  /** A share of `v`: one registry entry, made on the first call with this
    * object (`eq`) and returned again later in the run. Nothing is copied or
    * serialized. It lives until the run ends.
    */
  def share[T](v: T): Share[T] =
    shares.computeIfAbsent(v, _ => {
      val key = Run.keys.getAndIncrement()
      Run.registry.put(key, v)
      new Share(key)
    }).asInstanceOf[Share[T]]

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

  /** The live shares of every run in this JVM, by key, and the next key.
    * Tasks under a local master run in the driver's JVM and read it there.
    */
  private[repro] val registry = new ConcurrentHashMap[Long, Any]
  private[repro] val keys     = new AtomicLong

  /** `body` in a new run. Every share of the run leaves the registry when
    * `body` returns or throws, also when one of its tasks failed. The
    * session's master must be local (see [[isLocal]]).
    */
  def apply[T](spark: SparkSession)(body: Run => T): T = {
    val master = spark.sparkContext.master
    require(isLocal(master), s"a run's tasks read the driver's objects, so its master must be local or local[...], not $master")
    val run = new Run(spark)
    try body(run) finally run.shares.values.forEach(s => registry.remove(s.key))
  }

  /** Whether a master runs every task in the driver's JVM: `local` or
    * `local[...]`.
    */
  def isLocal(master: String): Boolean =
    master == "local" || (master.startsWith("local[") && master.endsWith("]"))
}
