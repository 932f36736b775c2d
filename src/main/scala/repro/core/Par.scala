package repro.core

import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.reflect.ClassTag

/** Parallel-loop substrate: Spark tasks play the role of OpenMP threads.
  *
  * Every call builds groups of item indices and runs them through
  * [[mapGroups]]: one RDD stage with one partition, hence one Spark task, per
  * group. Three scheduling modes mirror the paper:
  *
  *  - [[mapBalanced]] — the cost-based partitioning of §4.5: work units are
  *    packed into `buckets` groups with Graham's LPT greedy (3/2-approx of
  *    makespan), one group per Spark task.
  *  - [[mapIndexed]] — the `schedule(dynamic)` analogue of §3: unit-cost items
  *    are split into many more partitions than cores so the Spark scheduler
  *    balances dynamically.
  *  - [[mapStatic]] — deliberately *unbalanced* static contiguous ranges,
  *    reproducing LSH-DDP's hash partitioning that the paper criticizes.
  */
object Par {

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

  /** Runs `f` once on each group, each group in its own Spark task of one
    * RDD stage with no shuffle, and returns the results in group order.
    */
  def mapGroups[T: ClassTag](spark: SparkSession, groups: Array[Array[Int]])(f: Array[Int] => T): Array[T] =
    if (groups.isEmpty) Array.empty[T]
    else spark.sparkContext.parallelize(groups.toSeq, groups.length).map(f).collect()

  /** LPT-balanced parallel map: each of the `buckets` index groups is processed
    * by one Spark task via `f`; all results are collected to the driver.
    */
  def mapBalanced[T: ClassTag](spark: SparkSession, costs: Array[Double], buckets: Int)(
      f: Array[Int] => Iterator[T]
  ): Array[T] =
    flatMapGroups(spark, if (costs.isEmpty) Array.empty else lpt(costs, buckets))(f)

  /** Dynamic-scheduling analogue: `n` unit-cost items, `oversub` partitions per
    * core so stragglers are absorbed by the scheduler.
    */
  def mapIndexed[T: ClassTag](spark: SparkSession, n: Int, oversub: Int = 4)(
      f: Array[Int] => Iterator[T]
  ): Array[T] = {
    val parts  = math.min(n, spark.sparkContext.defaultParallelism * oversub)
    val groups = Array.tabulate(parts)(g => Array.range(g, n, parts))
    flatMapGroups(spark, groups)(f)
  }

  /** Static contiguous ranges (no load balancing) — LSH-DDP's partitioning. */
  def mapStatic[T: ClassTag](spark: SparkSession, n: Int, parts: Int)(
      f: Array[Int] => Iterator[T]
  ): Array[T] = {
    val p      = math.max(1, math.min(parts, n))
    val step   = (n + p - 1) / p
    val groups = Array.tabulate(p)(g => Array.range(g * step, math.min(n, (g + 1) * step)))
    flatMapGroups(spark, groups.filter(_.nonEmpty))(f)
  }

  private def flatMapGroups[T: ClassTag](spark: SparkSession, groups: Array[Array[Int]])(
      f: Array[Int] => Iterator[T]
  ): Array[T] =
    mapGroups(spark, groups)(g => f(g).toArray).flatten
}
