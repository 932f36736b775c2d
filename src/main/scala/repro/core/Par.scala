package repro.core

import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.reflect.ClassTag

/** Parallel-loop substrate: Spark tasks play the role of OpenMP threads.
  *
  * Every call builds groups of item indices and runs them as one RDD stage
  * with one partition, hence one Spark task, per group. Three scheduling
  * modes mirror the paper:
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
    * largest item first onto the least-loaded group. Returns the item indices
    * of each group.
    */
  def lpt(costs: Array[Double], buckets: Int): Array[Array[Int]] = {
    val b = math.max(1, math.min(buckets, math.max(1, costs.length)))
    val order = Array.tabulate(costs.length)(identity).sortBy(i => -costs(i))
    val loads = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by[(Double, Int), Double](_._1).reverse)
    (0 until b).foreach(i => loads.enqueue((0.0, i)))
    val groups = Array.fill(b)(new mutable.ArrayBuilder.ofInt)
    order.foreach { i =>
      val (load, g) = loads.dequeue()
      groups(g) += i
      loads.enqueue((load + math.max(costs(i), 1e-12), g))
    }
    groups.map(_.result())
  }

  /** LPT-balanced parallel map: each of the `buckets` index groups is processed
    * by one Spark task via `f`; all results are collected to the driver.
    */
  def mapBalanced[T: ClassTag](spark: SparkSession, costs: Array[Double], buckets: Int)(
      f: Array[Int] => Iterator[T]
  ): Array[T] = {
    if (costs.isEmpty) return Array.empty[T]
    val groups = lpt(costs, buckets)
    runGroups(spark, groups)(f)
  }

  /** Dynamic-scheduling analogue: `n` unit-cost items, `oversub` partitions per
    * core so stragglers are absorbed by the scheduler.
    */
  def mapIndexed[T: ClassTag](spark: SparkSession, n: Int, oversub: Int = 4)(
      f: Array[Int] => Iterator[T]
  ): Array[T] = {
    if (n == 0) return Array.empty[T]
    val parts  = math.min(n, spark.sparkContext.defaultParallelism * oversub)
    val groups = roundRobin(n, parts)
    runGroups(spark, groups)(f)
  }

  /** Static contiguous ranges (no load balancing) — LSH-DDP's partitioning. */
  def mapStatic[T: ClassTag](spark: SparkSession, n: Int, parts: Int)(
      f: Array[Int] => Iterator[T]
  ): Array[T] = {
    if (n == 0) return Array.empty[T]
    val p      = math.max(1, math.min(parts, n))
    val step   = (n + p - 1) / p
    val groups = (0 until p).map(g => ((g * step) until math.min(n, (g + 1) * step)).toArray).toArray
    runGroups(spark, groups.filter(_.nonEmpty))(f)
  }

  private def roundRobin(n: Int, parts: Int): Array[Array[Int]] = {
    val groups = Array.fill(parts)(new mutable.ArrayBuilder.ofInt)
    var i = 0
    while (i < n) { groups(i % parts) += i; i += 1 }
    groups.map(_.result()).filter(_.nonEmpty)
  }

  /** One RDD stage with exactly one partition, hence one Spark task, per
    * group, and no shuffle. Results come back in group order.
    */
  private def runGroups[T: ClassTag](spark: SparkSession, groups: Array[Array[Int]])(
      f: Array[Int] => Iterator[T]
  ): Array[T] =
    spark.sparkContext.parallelize(groups.toSeq, groups.length).flatMap(f).collect()
}
