package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.reflect.ClassTag

/** Parallel-loop substrate: Spark tasks play the role of OpenMP threads.
  *
  * Every parallel phase builds groups of item indices and runs them through
  * [[mapGroups]]: one RDD stage with one partition, hence one Spark task, per
  * group. Each task returns one block of primitive arrays for its group, and
  * [[scatter]] puts the blocks' values back at their items' indices;
  * [[mapItems]] is that loop for a per-item kernel. Three
  * group builders mirror the paper's scheduling modes:
  *
  *  - [[lpt]] — the cost-based partitioning of §4.5: work units are packed
  *    into buckets with Graham's LPT greedy (3/2-approx of makespan).
  *  - [[indexed]] — the `schedule(dynamic)` analogue of §3: unit-cost items
  *    are dealt round-robin into many more groups than cores so the Spark
  *    scheduler balances dynamically; [[sliced]] makes as many groups from
  *    contiguous slices of a given order (Ex-DPC's kd-tree leaf order).
  *  - [[ranges]] — deliberately *unbalanced* static contiguous ranges,
  *    reproducing LSH-DDP's hash partitioning that the paper criticizes.
  *
  * Granularity (OpenMP's `parallel if(...)`): a call with a single group runs
  * on the driver with no Spark job, and [[sized]] gives a phase one group when
  * its estimated work is below the cost of a fan-out, [[FanOutWork]].
  */
object Par {

  /** Estimated work, in steps of one distance evaluation in a tree search,
    * below which one [[mapGroups]] fan-out costs more than doing the work on
    * the driver. Measured on a 4-vCPU VM (`local[4]`): a no-op `Par` call
    * (the benchmark's `par.noop_ms`) takes 20–30 ms, and one thread answers
    * `ExactDependents` queries at 14–20 ns per estimated step (Approx-DPC's
    * 610 undecided 2-d points over 20k in 0.7 ms, its 5,897 3-d ones over 75k
    * in 15 ms). The smaller fan-out cost over the larger step cost,
    * 20 ms / 20 ns, gives 1e6 steps.
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

  /** Runs `f` once on each group, each group in its own Spark task of one
    * RDD stage with no shuffle, and returns the results in group order. A
    * single group runs as `f` on the driver, with no Spark job.
    *
    * `f` is never serialized: a fan-out puts `g => f(groups(g))` in
    * [[registry]] under a fresh key for the length of its job, and each task
    * carries only that key and its group's index. So `f` reads what it
    * captures (points, trees, grids, densities) as the driver's own objects,
    * shared by every task of the job: captures are read-only, and per-task
    * scratch is made inside `f`. This needs every task in the driver's JVM,
    * so a fan-out refuses a master that is not local (see [[isLocal]]).
    */
  def mapGroups[T: ClassTag](spark: SparkSession, groups: Array[Array[Int]])(f: Array[Int] => T): Array[T] =
    if (groups.isEmpty) Array.empty[T]
    else if (groups.length == 1) Array(f(groups(0)))
    else {
      val sc = spark.sparkContext
      require(isLocal(sc.master), s"a fan-out's tasks read the driver's objects, so its master must be local or local[...], not ${sc.master}")
      val key = keys.getAndIncrement()
      registry.put(key, (g: Int) => f(groups(g)))
      try sc.parallelize(0 until groups.length, groups.length).map(g => registry.get(key)(g).asInstanceOf[T]).collect()
      finally registry.remove(key)
    }

  /** The function of every running fan-out in this JVM, by key, and the next
    * key. Tasks under a local master run in the driver's JVM and read it there.
    */
  private[repro] val registry = new ConcurrentHashMap[Long, Int => Any]
  private[repro] val keys     = new AtomicLong

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

  /** `kernel`'s result for every item of `groups` (which together hold
    * `0 until n` once), placed by item index: each group runs in its own task,
    * as [[mapGroups]] does, where `kernel()` makes the per-item function once.
    * The kernel reads its captures in place, as [[mapGroups]]' `f` does; what
    * one task writes (query buffers, stamps, column copies) it makes in the
    * factory. Specialized, so `Int` and `Double` results are not boxed.
    */
  def mapItems[@specialized(Int, Double) T: ClassTag](spark: SparkSession, n: Int, groups: Array[Array[Int]])(
      kernel: () => Int => T
  ): Array[T] =
    scatter(n, groups, mapGroups(spark, groups) { idxs =>
      val f   = kernel()
      val out = new Array[T](idxs.length)
      var k = 0
      while (k < idxs.length) { out(k) = f(idxs(k)); k += 1 }
      out
    })

  /** An array of length `n` holding `blocks(g)(k)` at index `groups(g)(k)`:
    * the per-group results of [[mapGroups]] placed by item index.
    * Specialized, so `Int` and `Double` blocks are copied without boxing.
    */
  def scatter[@specialized(Int, Double) T: ClassTag](n: Int, groups: Array[Array[Int]], blocks: Array[Array[T]]): Array[T] = {
    val out = new Array[T](n)
    var g = 0
    while (g < groups.length) {
      val ix = groups(g)
      val b  = blocks(g)
      require(b.length == ix.length, s"group $g has ${ix.length} items but a block of ${b.length}")
      var k = 0
      while (k < ix.length) { out(ix(k)) = b(k); k += 1 }
      g += 1
    }
    out
  }
}
