package repro.core

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, CyclicBarrier, TimeUnit}
import org.apache.spark.{SparkException, TaskContext}
import repro.{SparkSpec, TestUtil}
import scala.concurrent.{blocking, Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._
import scala.jdk.CollectionConverters._
import scala.util.Random

/** LPT scheduling + Spark fan-out semantics, and the registry through which
  * a fan-out's tasks read the driver's own objects.
  */
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

  test("mapGroups over lpt groups computes every item once") {
    val costs = Array.tabulate(500)(i => (i % 7 + 1).toDouble)
    val out = Par.mapGroups(spark, Par.lpt(costs, 8))(idxs => idxs.map(i => (i, i * i))).flatten
    assert(out.length === 500)
    assert(out.toMap === (0 until 500).map(i => i -> i * i).toMap)
  }

  test("mapIndexed covers 0 until n") {
    val out = Par.mapIndexed[Int](spark, 1000)(idxs => idxs.iterator.map(_ + 1))
    assert(out.sorted.toSeq === (1 to 1000))
  }

  test("sliced cuts an order into as many contiguous slices as indexed deals groups") {
    val order = new Random(3).shuffle((0 until 1000).toVector).toArray
    val g     = Par.sliced(spark, order)
    assert(g.length === Par.indexed(spark, 1000).length)
    assert(g.flatten.toSeq === order.toSeq)
    assert(g.map(_.length).max - g.map(_.length).min <= 1)
    assert(Par.sliced(spark, Array(5, 3)).map(_.toSeq).toSeq === Seq(Seq(5), Seq(3)))
    assert(Par.sliced(spark, Array.empty[Int]).isEmpty)
  }

  test("mapGroups over ranges covers 0 until n in contiguous ranges") {
    val out = Par.mapGroups(spark, Par.ranges(100, 7)) { idxs =>
      idxs.map(i => (i, idxs.min, idxs.max, idxs.length))
    }.flatten
    assert(out.map(_._1).sorted.toSeq === (0 until 100))
    // each group must be contiguous (static ranges, no balancing)
    out.groupBy(_._2).values.foreach { g =>
      val (_, lo, hi, len) = g.head
      assert(hi - lo + 1 === len)
      assert(g.map(_._1).sorted.toSeq === (lo to hi))
    }
  }

  test("empty inputs yield empty outputs") {
    assert(Par.mapGroups(spark, Par.lpt(Array.empty[Double], 4))(identity).flatten.isEmpty)
    assert(Par.mapIndexed[Int](spark, 0)(_.iterator.map(identity)).isEmpty)
    assert(Par.mapGroups(spark, Par.ranges(0, 4))(identity).isEmpty)
  }

  /** The task partition id and the group, for the group it is called on. */
  private val taskOfGroup: Array[Int] => (Int, Seq[Int]) =
    idxs => (TaskContext.getPartitionId(), idxs.toSeq)

  /** Runs `call`, whose `f` is the one it is given, over `groups`, and checks
    * the fan-out contract: one job of one stage, no shuffle bytes and
    * `min(groups, cores)` tasks; each group handed to `f` exactly once, group
    * `t < tasks` by task `t`; results in group order. Returns the results.
    */
  private def assertClaimed(groups: Seq[Seq[Int]])(
      call: (Array[Int] => (Int, Seq[Int])) => Array[(Int, Seq[Int])]): Array[(Int, Seq[Int])] = {
    val tasks = math.min(groups.length, spark.sparkContext.defaultParallelism)
    val calls = new ConcurrentLinkedQueue[Seq[Int]]
    val inTask = taskOfGroup // a local copy, so the closure does not capture the suite
    var seen  = Array.empty[(Int, Seq[Int])]
    val work  = TestUtil.work(spark) { seen = call { g => calls.add(g.toSeq); inTask(g) } }
    assert(work === TestUtil.Work(1, 1, 0L, Seq(tasks)), "(jobs, stages, shuffle bytes, tasks per job)")
    // f never leaves the driver's JVM, so every call reached the driver's queue.
    assert(calls.asScala.toSeq.sortBy(_.head) === groups.sortBy(_.head), "groups handed to f")
    assert(seen.map(_._2).toSeq === groups, "results in group order")
    assert(seen.map(_._1).distinct.sorted.toSeq === (0 until tasks), "task ids")
    (0 until tasks).foreach(t => assert(seen(t)._1 === t, s"group $t ran in task ${seen(t)._1}"))
    seen
  }

  /** Each group was handed to `f` once, by a task that saw no other group. */
  private def assertOneTaskPerGroup(seen: Array[(Int, Seq[Int])], groups: Seq[Seq[Int]]): Unit = {
    assert(seen.map(_._2.sorted).sortBy(_.head).toSeq === groups.map(_.sorted).sortBy(_.head))
    val perTask = seen.groupBy(_._1).view.mapValues(_.length).toMap
    assert(perTask.size === groups.length, s"${groups.length} groups ran in ${perTask.size} tasks")
    assert(perTask.values.forall(_ == 1), s"groups per task: $perTask")
  }

  test("mapGroups runs each LPT group in its own task") {
    val b      = math.max(2, spark.sparkContext.defaultParallelism) // one group would run on the driver
    val costs  = Array.fill(400)(1.0)
    val groups = Par.lpt(costs, b)
    val seen   = Par.mapGroups(spark, groups)(taskOfGroup)
    assertOneTaskPerGroup(seen, groups.map(_.toSeq).toSeq)
  }

  test("mapIndexed: one task per core claims the round-robin groups") {
    val n     = 1000
    val parts = spark.sparkContext.defaultParallelism * Par.Oversub
    assertClaimed((0 until parts).map(g => g until n by parts))(f => Par.mapIndexed(spark, n)(g => Iterator.single(f(g))))
  }

  test("mapGroups: one task per core claims the static ranges") {
    val seen = assertClaimed((0 until 100).grouped(15).toSeq)(Par.mapGroups(spark, Par.ranges(100, 7))(_))
    seen.foreach { case (_, g) => assert(g === (g.head to g.last), s"task saw a non-contiguous range $g") }
  }

  test("one Par call runs one job of one stage and writes no shuffle bytes") {
    val sc = spark.sparkContext
    val work = TestUtil.sparkWork(spark) {
      val groups = Par.lpt(Array.tabulate(400)(i => (i % 5 + 1).toDouble), math.max(2, sc.defaultParallelism))
      val out    = new Array[Double](400)
      Par.mapGroups(spark, groups)(_.foreach(i => out(i) = i * 0.5))
      assert(out.toSeq === (0 until 400).map(_ * 0.5))
    }
    assert(work === ((1, 1, 0L)), "(jobs, stages, shuffle bytes)")
  }

  test("mapGroups: one stage of a task per core claims the groups, in group order") {
    val groups = Array(Array(5, 1), Array(0), Array(2, 3, 4, 9), Array(8), Array(7, 6))
    assertClaimed(groups.map(_.toSeq).toSeq)(Par.mapGroups(spark, groups)(_))
    assert(Par.mapGroups(spark, Array.empty[Array[Int]])(_.length).isEmpty)
  }

  test("runPartitions keeps partition order when partitions finish out of order") {
    val parts = 4
    // Partition 0 finishes last: it waits for the others, which can all run
    // while it waits when there are two cores or more.
    val outOfOrder = spark.sparkContext.defaultParallelism >= 2
    ParSpec.othersDone = new CountDownLatch(parts - 1)
    ParSpec.finished.clear()
    val rdd = spark.sparkContext.parallelize(0 until parts * 10, parts)
    val out = Par.runPartitions(rdd) { it =>
      val p = TaskContext.getPartitionId()
      if (p > 0) ParSpec.othersDone.countDown()
      else if (outOfOrder) ParSpec.othersDone.await(60, TimeUnit.SECONDS)
      ParSpec.finished.add(p)
      (p, it.sum)
    }
    assert(out.toSeq === (0 until parts).map(p => (p, (p * 10 until p * 10 + 10).sum)))
    if (outOfOrder) assert(ParSpec.finished.asScala.toSeq.last === 0, "finish order")
  }

  test("a claimed group that throws fails the fan-out with its exception as a cause") {
    val groups = Par.indexed(spark, 1000)
    val bad    = groups.length - 1 // no task starts on it, so one claims it
    assert(bad >= spark.sparkContext.defaultParallelism)
    var e: SparkException = null
    TestUtil.assertReleases(spark) {
      e = intercept[SparkException] {
        Par.mapGroups(spark, groups)(g => if (g.head == bad) throw new IllegalStateException(s"group $bad") else g.length)
      }
    }
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).toSeq
    assert(causes.exists(c => c.isInstanceOf[IllegalStateException] && c.getMessage == s"group $bad"), causes.mkString("; "))
  }

  test("under a master that retries tasks, a claimed group that failed runs again or fails the fan-out") {
    // ParRetryCheck starts its own local[2,2] SparkContext, so it runs in a
    // JVM of its own, with this JVM's options and class path.
    val jvm  = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filterNot(_.startsWith("-Xmx"))
    val java = Paths.get(sys.props("java.home"), "bin", "java").toString
    val cmd  = Seq(java) ++ jvm ++ Seq("-Xmx512m", "-cp", sys.props("java.class.path"), "repro.core.ParRetryCheck")
    val log  = Files.createTempFile("ParRetryCheck", ".log")
    try {
      val p = new ProcessBuilder(cmd: _*).redirectErrorStream(true).redirectOutput(log.toFile).start()
      if (!p.waitFor(300, TimeUnit.SECONDS)) p.destroyForcibly().waitFor()
      val out = new String(Files.readAllBytes(log))
      assert(p.exitValue() === 0, out)
      assert(out.linesIterator.filter(_.startsWith("ok ")).toSeq === Seq("ok a group that fails once", "ok a group that always fails"), out)
    } finally Files.deleteIfExists(log)
  }

  test("a one-group call runs f on the driver with no Spark job and returns what the Spark path returns") {
    val group  = Array(5, 1, 0, 7, 2)
    val f      = (idxs: Array[Int]) => (TaskContext.get() == null, idxs.map(i => i * 0.5 + 1.0))
    var local  = Array.empty[(Boolean, Array[Double])]
    val work   = TestUtil.sparkWork(spark) { local = Par.mapGroups(spark, Array(group))(f) }
    assert(work === ((0, 0, 0L)), "(jobs, stages, shuffle bytes)")
    // The same group next to an empty one takes the Spark path.
    val fanned = Par.mapGroups(spark, Array(group, Array.empty[Int]))(f)
    assert(local.length === 1)
    assert(local(0)._1, "f ran inside a Spark task")
    assert(!fanned(0)._1, "f did not run inside a Spark task")
    assert(local(0)._2.toSeq === fanned(0)._2.toSeq)
    // Both paths write the same values in place at the group's items.
    val written = Seq(Array(group), Array(group, Array.empty[Int])).map { groups =>
      val out = new Array[Double](8)
      Par.mapGroups(spark, groups)(idxs => idxs.foreach(i => out(i) = i * 0.5 + 1.0))
      out.toSeq
    }
    assert(written(0) === written(1))
    assert(written(0) === (0 until 8).map(i => if (group.contains(i)) i * 0.5 + 1.0 else 0.0))
  }

  test("sized gives one group below FanOutWork and one round-robin group per core from it on") {
    val cores = spark.sparkContext.defaultParallelism
    val below = Par.sized(spark, 100, Par.FanOutWork - 1)
    assert(below.map(_.toSeq).toSeq === Seq(0 until 100))
    assert(TestUtil.sparkWork(spark)(Par.mapGroups(spark, below)(_.sum)) === ((0, 0, 0L)))
    // Round-robin, one group per core: group g holds g, g + p, g + 2p, ...
    val above = Par.sized(spark, 100, Par.FanOutWork)
    val p     = math.min(100, cores)
    assert(above.map(_.toSeq).toSeq === (0 until p).map(g => g until 100 by p))
    assert(Par.sized(spark, 2, 1e12).length === math.min(2, cores))
    assert(Par.sized(spark, 0, 0.0).isEmpty && Par.sized(spark, 0, 1e12).isEmpty)
  }

  test("lpt breaks ties by item index and then by the lowest group index") {
    assert(Par.lpt(Array.fill(7)(1.0), 3).map(_.toSeq).toSeq === Seq(Seq(0, 3, 6), Seq(1, 4), Seq(2, 5)))
    // 5 opens group 0, the 3s (items 1 then 2) open groups 1 and 2, and the 1
    // joins group 1, the lower of the two groups loaded 3.
    assert(Par.lpt(Array(1.0, 3.0, 3.0, 5.0), 3).map(_.toSeq).toSeq === Seq(Seq(3), Seq(1, 0), Seq(2)))
  }

  test("a task writes through a captured array to the driver's own array") {
    val xs = new Array[Int](1000)
    var ids = Array.empty[Int]
    // Each task writes its own items into the captured array, so the writes
    // do not race: a copy's writes would not reach `xs`.
    val bcasts = TestUtil.broadcastsIn(spark) {
      ids = Par.mapGroups(spark, Par.indexed(spark, 1000)) { g =>
        g.foreach(i => xs(i) = i + 1)
        System.identityHashCode(xs)
      }
    }
    assert(xs.toSeq === (1 to 1000))
    assert(ids.distinct.toSeq === Seq(System.identityHashCode(xs)))
    assert(bcasts === 1, "one task binary and nothing else")
  }

  test("a fan-out makes one registry entry, and a single group or no group makes none") {
    val fanOut = Par.lpt(Array.fill(100)(1.0), 2)
    var live   = Array.empty[Boolean]
    assert(TestUtil.sharesIn {
      live = Par.mapGroups(spark, fanOut)(_ => !Par.registry.isEmpty)
    } === 1)
    assert(live.forall(identity), "a task ran with no live entry")
    assert(TestUtil.sharesIn(Par.mapGroups(spark, Array(Array.range(0, 100)))(_.sum)) === 0)
    assert(TestUtil.sharesIn(Par.mapGroups(spark, Array.empty[Array[Int]])(_.sum)) === 0)
    assert(TestUtil.sharesIn(Density.rho(spark, 100, Par.indexed(spark, 100))(() => i => i)) === 1)
  }

  test("two fan-outs on two driver threads at once each read only their own captures") {
    val n = 1000
    // One task of each fan-out waits for one of the other's, so both
    // registry entries are live together. With a single core the two jobs
    // cannot overlap, and the tasks do not wait.
    val overlap = spark.sparkContext.defaultParallelism >= 2
    val barrier = new CyclicBarrier(2)
    TestUtil.assertReleases(spark) {
      val runs = Seq(1.0, 2.0).map { v =>
        Future {
          val xs = Array.fill(n)(v)
          Par.mapGroups(spark, Par.ranges(n, 2)) { g =>
            if (overlap && g.head == 0) blocking(barrier.await(60, TimeUnit.SECONDS))
            g.map(xs(_))
          }.flatten
        }
      }
      val out = runs.map(Await.result(_, 90.seconds))
      assert(out.map(_.toSeq) === Seq(Seq.fill(n)(1.0), Seq.fill(n)(2.0)))
    }
  }

  test("only a local master runs tasks in the driver's JVM") {
    Seq("local", "local[4]", "local[*]", "local[2,3]").foreach(m => assert(Par.isLocal(m), m))
    Seq("local-cluster[2,1,1024]", "spark://h:7077", "yarn", "k8s://h:443", "localhost", "local[4")
      .foreach(m => assert(!Par.isLocal(m), m))
  }
}

object ParSpec {
  /** State the tasks of one test share: a task captures them by reference
    * through this object, not as a serialized copy.
    */
  @volatile var othersDone = new CountDownLatch(0)
  val finished             = new ConcurrentLinkedQueue[Int]
}
