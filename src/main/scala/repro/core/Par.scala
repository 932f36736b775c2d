package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.concurrent.Await
import scala.concurrent.duration.Duration
import scala.reflect.ClassTag

/** Parallel-loop substrate: Spark tasks play the role of OpenMP threads.
  *
  * Every parallel phase builds groups of item indices and runs them through
  * [[mapGroups]]: one RDD stage of at most one Spark task per core, whose
  * tasks claim the groups one at a time, as the threads of an OpenMP team
  * take chunks of a `schedule(dynamic)` loop. As an OpenMP thread writes
  * `rho[i]` for its own points, a task writes its own group's items into the
  * caller's output arrays, at those items' indices: the groups are disjoint,
  * and the job's end publishes the writes to the driver. Three group builders
  * mirror the paper's scheduling modes:
  *
  *  - [[lpt]] — the cost-based partitioning of §4.5: work units are packed
  *    into buckets with Graham's LPT greedy (3/2-approx of makespan).
  *  - [[indexed]] — the `schedule(dynamic)` analogue of §3: unit-cost items
  *    are dealt round-robin into many more groups than cores, which the
  *    tasks claim as they finish; [[sliced]] makes as many groups from
  *    contiguous slices of a given order (Ex-DPC's kd-tree leaf order).
  *  - [[ranges]] — deliberately *unbalanced* static contiguous ranges,
  *    reproducing LSH-DDP's hash partitioning that the paper criticizes.
  *
  * Granularity (OpenMP's `parallel if(...)`): a call with a single group runs
  * on the driver with no Spark job, and [[sized]] gives a phase one group when
  * its estimated work is below the cost of a fan-out, [[FanOutWork]].
  *
  * Every Spark job of a run, loading the points ([[Pts.fromDF]]) and every
  * fan-out, starts in [[runPartitions]].
  */
object Par {

  /** Estimated work, in steps of one distance evaluation in a tree search,
    * below which one [[mapGroups]] fan-out costs more than doing the work on
    * the driver. Measured on a 4-vCPU VM (`local[4]`): a no-op `Par` call
    * (the benchmark's `par.noop_ms`) takes 5.6–5.8 ms, and one thread answers
    * `ExactDependents` queries at 16–20 ns per estimated step (Approx-DPC's
    * 610 undecided 2-d points over 20k in 0.6–0.7 ms, its 5,897 3-d ones over
    * 75k in 12–15 ms). The smaller fan-out cost over the larger step cost,
    * 5.6 ms / 20 ns, would give about 3e5 steps, but a no-op understates a
    * fan-out that does work: those 5,897 queries (7.6e5 steps) took 19.9 ms
    * fanned out over 4 tasks against 14.4 ms on the driver, and at 3e5
    * Approx-DPC's delta phase on that input was no faster. So the value stays
    * at 1e6 steps.
    */
  val FanOutWork: Double = 1e6

  /** Round-robin groups of `0 until n` for a phase whose total work is
    * estimated at `work` steps (see [[FanOutWork]]): one group, which
    * [[mapGroups]] runs on the driver, when the work is below [[FanOutWork]];
    * otherwise one group per core.
    */
  def sized(spark: SparkSession, n: Int, work: Double): Array[Array[Int]] =
    roundRobin(n, if (work < FanOutWork) 1 else spark.sparkContext.defaultParallelism)

  /** Graham's LPT greedy: assign `costs.length` items to `buckets` groups,
    * largest item first (equal costs by ascending index) onto the least-loaded
    * group (the lowest group index among equally loaded ones). Returns the
    * item indices of each group, in the order they were assigned.
    */
  def lpt(costs: Array[Double], buckets: Int): Array[Array[Int]] = {
    val b      = math.max(1, math.min(buckets, math.max(1, costs.length)))
    val loads  = new Array[Double](b)
    val groups = Array.fill(b)(new mutable.ArrayBuilder.ofInt)
    val order  = Order.descending(costs)
    var r = 0
    while (r < order.length) {
      val i = order(r)
      var g = 0
      var k = 1
      while (k < b) { if (loads(k) < loads(g)) g = k; k += 1 }
      groups(g) += i
      loads(g) += math.max(costs(i), 1e-12)
      r += 1
    }
    groups.map(_.result())
  }

  /** Groups per core of [[indexed]]. */
  val Oversub = 4

  /** `0 until n` dealt round-robin into [[Oversub]] groups per core (at most
    * `n` groups): group g holds `g, g + parts, g + 2 * parts, ...`.
    */
  def indexed(spark: SparkSession, n: Int): Array[Array[Int]] =
    roundRobin(n, spark.sparkContext.defaultParallelism * Oversub)

  /** `order` cut into as many contiguous slices as [[indexed]] deals groups
    * (at most `order.length`), their lengths differing by at most one: items
    * next to each other in `order` share a group.
    */
  def sliced(spark: SparkSession, order: Array[Int]): Array[Array[Int]] = {
    val n = order.length
    val p = math.min(n, spark.sparkContext.defaultParallelism * Oversub)
    Array.tabulate(p)(g => java.util.Arrays.copyOfRange(order, (g.toLong * n / p).toInt, ((g + 1).toLong * n / p).toInt))
  }

  /** `0 until n` dealt round-robin into `min(n, parts)` groups. */
  private def roundRobin(n: Int, parts: Int): Array[Array[Int]] = {
    val p = math.min(n, parts)
    Array.tabulate(p)(g => Array.range(g, n, p))
  }

  /** `0 until n` cut into at most `parts` contiguous ranges of equal length
    * (the last one shorter), with no load balancing.
    */
  def ranges(n: Int, parts: Int): Array[Array[Int]] = {
    val p    = math.max(1, math.min(parts, n))
    val step = (n + p - 1) / p
    Array.tabulate(p)(g => Array.range(g * step, math.min(n, (g + 1) * step))).filter(_.nonEmpty)
  }

  /** Runs `f` once on each group and returns the results in group order. A
    * single group runs as `f` on the driver, with no Spark job. More groups
    * fan out as one job of one RDD stage with no shuffle, and
    * `min(groups, cores)` tasks: task `t` runs group `t`, then claims the
    * next unclaimed group until none is left (OpenMP's `schedule(dynamic)`
    * with one thread per core), and stores `f`'s result at the group's index.
    * Task `t` records the group it runs in `current(t)`, so when a master
    * `local[N,F]` retries a failed task, the new attempt starts again at the
    * group on which the old one failed, and no claimed group is left unrun:
    * `f` then runs again on that group, and its writes replace the ones the
    * failed run made. A group that fails on every attempt fails the call.
    *
    * `f` is never serialized: a fan-out puts its task body in [[registry]]
    * under a fresh key for the length of its job, and each task carries only
    * that key and its own index. So `f` reads what it captures (points,
    * trees, grids, densities) as the driver's own objects, shared by every
    * task of the job: captures are read-only except the phase's output arrays
    * at the task's own items, and per-group scratch is made inside `f`. This
    * needs every task in the driver's JVM, so a fan-out refuses a master that
    * is not local (see [[isLocal]]). Once the call has thrown, no task claims
    * another group.
    */
  def mapGroups[T: ClassTag](spark: SparkSession, groups: Array[Array[Int]])(f: Array[Int] => T): Array[T] =
    if (groups.isEmpty) Array.empty[T]
    else if (groups.length == 1) Array(f(groups(0)))
    else {
      val sc = spark.sparkContext
      require(isLocal(sc.master), s"a fan-out's tasks read the driver's objects, so its master must be local or local[...], not ${sc.master}")
      val out     = new Array[T](groups.length)
      val tasks   = math.min(groups.length, sc.defaultParallelism)
      val next    = new AtomicInteger(tasks)
      // A retry reads its task's entry after the scheduler has handled the
      // failed attempt's end, which orders it after that attempt's writes.
      val current = Array.range(0, tasks)
      val key     = keys.getAndIncrement()
      registry.put(key, { t =>
        var g = current(t)
        while (g < groups.length) {
          out(g) = f(groups(g))
          g = next.getAndIncrement()
          current(t) = g
        }
      })
      try runPartitions(sc.parallelize(0 until tasks, tasks))(ts => registry.get(key)(ts.next()))
      finally { next.set(groups.length); registry.remove(key) }
      out
    }

  /** The task body of every running fan-out in this JVM, by key, and the
    * next key. Tasks under a local master run in the driver's JVM and read it
    * there.
    */
  private[repro] val registry = new ConcurrentHashMap[Long, Int => Unit]
  private[repro] val keys     = new AtomicLong

  /** Runs `f` on every partition of `rdd` as one Spark job and returns its
    * results by partition index; the job's failure is thrown as the
    * `SparkException` that `RDD.collect()` would throw.
    *
    * `SparkContext.submitJob` cleans and serializability-checks `f` alone,
    * where `collect()` also sends two of Spark's own closures through the
    * closure cleaner, which parses their declaring classes on every call.
    */
  def runPartitions[A, B: ClassTag](rdd: RDD[A])(f: Iterator[A] => B): Array[B] = {
    val out = new Array[B](rdd.partitions.length)
    val job = rdd.sparkContext.submitJob(rdd, f, out.indices, (p: Int, b: B) => out(p) = b, ())
    Await.result(job, Duration.Inf)
    out
  }

  /** Whether a master runs every task in the driver's JVM: `local` or
    * `local[...]`.
    */
  def isLocal(master: String): Boolean =
    master == "local" || (master.startsWith("local[") && master.endsWith("]"))

  /** [[mapGroups]] over the [[indexed]] groups, with each group's results
    * flattened in group order.
    */
  def mapIndexed[T: ClassTag](spark: SparkSession, n: Int)(f: Array[Int] => Iterator[T]): Array[T] =
    mapGroups(spark, indexed(spark, n))(g => f(g).toArray).flatten
}
