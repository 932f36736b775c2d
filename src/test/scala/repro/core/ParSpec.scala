package repro.core

import org.apache.spark.TaskContext
import org.apache.spark.scheduler._
import repro.SparkSpec
import scala.collection.mutable
import scala.util.Random

/** LPT scheduling + Spark fan-out semantics. */
class ParSpec extends SparkSpec {

  test("lpt covers every item exactly once") {
    val rnd   = new Random(70)
    val costs = Array.fill(137)(rnd.nextDouble() * 10 + 0.1)
    val groups = Par.lpt(costs, 8)
    assert(groups.flatten.sorted.toSeq === (0 until 137))
  }

  test("lpt respects the 3/2 makespan bound on random instances") {
    val rnd = new Random(71)
    (1 to 10).foreach { trial =>
      val costs  = Array.fill(50 + trial * 10)(rnd.nextDouble() * 5 + 0.01)
      val b      = 2 + trial % 6
      val groups = Par.lpt(costs, b)
      val loads  = groups.map(_.map(i => costs(i)).sum)
      val opt    = math.max(costs.max, costs.sum / b) // LB on OPT
      assert(loads.max <= 1.5 * opt + 1e-9, s"trial $trial: makespan ${loads.max} vs LB $opt")
    }
  }

  test("lpt handles fewer items than buckets") {
    val groups = Par.lpt(Array(1.0, 2.0), 16)
    assert(groups.flatten.sorted.toSeq === Seq(0, 1))
  }

  test("lpt with single bucket returns everything in one group") {
    val groups = Par.lpt(Array(3.0, 1.0, 2.0), 1)
    assert(groups.length === 1 && groups.head.sorted.toSeq === Seq(0, 1, 2))
  }

  test("mapBalanced computes every item once") {
    val costs = Array.tabulate(500)(i => (i % 7 + 1).toDouble)
    val out = Par.mapBalanced[(Int, Int)](spark, costs, 8)(idxs => idxs.iterator.map(i => (i, i * i)))
    assert(out.length === 500)
    assert(out.toMap === (0 until 500).map(i => i -> i * i).toMap)
  }

  test("mapIndexed covers 0 until n") {
    val out = Par.mapIndexed[Int](spark, 1000)(idxs => idxs.iterator.map(_ + 1))
    assert(out.sorted.toSeq === (1 to 1000))
  }

  test("mapStatic covers 0 until n in contiguous ranges") {
    val out = Par.mapStatic[(Int, Int, Int, Int)](spark, 100, 7) { idxs =>
      idxs.iterator.map(i => (i, idxs.min, idxs.max, idxs.length))
    }
    assert(out.map(_._1).sorted.toSeq === (0 until 100))
    // each group must be contiguous (static ranges, no balancing)
    out.groupBy(_._2).values.foreach { g =>
      val (_, lo, hi, len) = g.head
      assert(hi - lo + 1 === len)
      assert(g.map(_._1).sorted.toSeq === (lo to hi))
    }
  }

  test("empty inputs yield empty outputs") {
    assert(Par.mapBalanced[Int](spark, Array.empty[Double], 4)(_.iterator.map(identity)).isEmpty)
    assert(Par.mapIndexed[Int](spark, 0)(_.iterator.map(identity)).isEmpty)
    assert(Par.mapStatic[Int](spark, 0, 4)(_.iterator.map(identity)).isEmpty)
  }

  /** Emits `(task partition id, group)` once per group it is called on. */
  private val taskOfGroup: Array[Int] => Iterator[(Int, Seq[Int])] =
    idxs => Iterator.single((TaskContext.getPartitionId(), idxs.toSeq))

  /** Each group was handed to `f` once, by a task that saw no other group. */
  private def assertOneTaskPerGroup(seen: Array[(Int, Seq[Int])], groups: Seq[Seq[Int]]): Unit = {
    assert(seen.map(_._2.sorted).sortBy(_.head).toSeq === groups.map(_.sorted).sortBy(_.head))
    val perTask = seen.groupBy(_._1).view.mapValues(_.length).toMap
    assert(perTask.size === groups.length, s"${groups.length} groups ran in ${perTask.size} tasks")
    assert(perTask.values.forall(_ == 1), s"groups per task: $perTask")
  }

  test("mapBalanced runs each LPT group in its own task") {
    val b     = spark.sparkContext.defaultParallelism
    val costs = Array.fill(400)(1.0)
    val seen  = Par.mapBalanced(spark, costs, b)(taskOfGroup)
    assertOneTaskPerGroup(seen, Par.lpt(costs, b).map(_.toSeq).toSeq)
  }

  test("mapIndexed runs each round-robin group in its own task") {
    val n     = 1000
    val parts = spark.sparkContext.defaultParallelism * 4
    val seen  = Par.mapIndexed(spark, n)(taskOfGroup)
    assertOneTaskPerGroup(seen, (0 until parts).map(g => g until n by parts))
  }

  test("mapStatic runs each contiguous range in its own task") {
    val seen = Par.mapStatic(spark, 100, 7)(taskOfGroup)
    assertOneTaskPerGroup(seen, (0 until 100).grouped(15).toSeq)
    seen.foreach { case (_, g) => assert(g === (g.head to g.last), s"task saw a non-contiguous range $g") }
  }

  /** Runs `body` under its own job group and returns the number of jobs and
    * completed stages it ran and the shuffle bytes its tasks wrote.
    */
  private def sparkWork(body: => Unit): (Int, Int, Long) = {
    val sc = spark.sparkContext
    val group = "ParSpec-one-stage"
    val marker = "ParSpec-marker"
    val jobs = mutable.Set.empty[Int]
    val markerJobs = mutable.Set.empty[Int]
    val stages = mutable.Set.empty[Int]
    val completed = mutable.Set.empty[Int]
    var shuffleBytes = 0L
    val markerDone = new java.util.concurrent.CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")) match {
          case Some(`group`) => jobs += e.jobId; stages ++= e.stageIds
          case Some(`marker`) => markerJobs += e.jobId
          case _ => ()
        }
      }
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
        if (stages.contains(e.stageInfo.stageId)) completed += e.stageInfo.stageId
      }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
        if (stages.contains(e.stageId) && e.taskMetrics != null)
          shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
      }
      override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
        if (markerJobs.contains(e.jobId)) markerDone.countDown()
      }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "one Par call")
      body
      // Listener events arrive in order, so once a later job has ended every
      // event of the Par call has been delivered.
      sc.setJobGroup(marker, "listener bus marker")
      sc.parallelize(Seq(1), 1).count()
      assert(markerDone.await(30, java.util.concurrent.TimeUnit.SECONDS), "listener bus did not drain")
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
    listener.synchronized((jobs.size, completed.size, shuffleBytes))
  }

  test("one Par call runs one job of one stage and writes no shuffle bytes") {
    val sc = spark.sparkContext
    val work = sparkWork {
      val out = Par.mapBalanced[(Int, Double)](spark, Array.tabulate(400)(i => (i % 5 + 1).toDouble), sc.defaultParallelism) { idxs =>
        idxs.iterator.map(i => (i, i * 0.5))
      }
      assert(out.length === 400)
    }
    assert(work === ((1, 1, 0L)), "(jobs, stages, shuffle bytes)")
  }

  test("mapGroups runs each group in its own task of one stage, writes no shuffle bytes, keeps group order") {
    val groups = Array(Array(5, 1), Array(0), Array(2, 3, 4, 9), Array(8), Array(7, 6))
    val inTask = taskOfGroup // a local copy, so the closure does not capture the suite
    var seen   = Array.empty[(Int, Seq[Int])]
    val work   = sparkWork { seen = Par.mapGroups(spark, groups)(inTask(_).next()) }
    assert(work === ((1, 1, 0L)), "(jobs, stages, shuffle bytes)")
    assert(seen.map(_._2).toSeq === groups.map(_.toSeq).toSeq)
    assertOneTaskPerGroup(seen, groups.map(_.toSeq).toSeq)
    assert(Par.mapGroups(spark, Array.empty[Array[Int]])(_.length).isEmpty)
  }

  test("lpt breaks ties by item index and then by the lowest group index") {
    assert(Par.lpt(Array.fill(7)(1.0), 3).map(_.toSeq).toSeq === Seq(Seq(0, 3, 6), Seq(1, 4), Seq(2, 5)))
    // 5 opens group 0, the 3s (items 1 then 2) open groups 1 and 2, and the 1
    // joins group 1, the lower of the two groups loaded 3.
    assert(Par.lpt(Array(1.0, 3.0, 3.0, 5.0), 3).map(_.toSeq).toSeq === Seq(Seq(3), Seq(1, 0), Seq(2)))
  }
}
