package repro

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import repro.core.{Jitter, Par, Pts}
import scala.collection.mutable
import scala.util.Random

/** Shared helpers for the unit suites: deterministic point generation and a
  * brute-force single-threaded DPC reference used to validate every index and
  * algorithm.
  */
object TestUtil {

  /** Uniform points in [0, domain]^d, deterministic in seed. */
  def uniformPts(n: Int, d: Int, domain: Double, seed: Long): Pts = {
    val rnd = new Random(seed)
    Pts.fromArrays(d, Seq.fill(n)(Array.fill(d)(rnd.nextDouble() * domain)))
  }

  /** k Gaussian clusters + background noise in [0, domain]^d. */
  def clusteredPts(
      n: Int,
      d: Int,
      k: Int,
      sigma: Double,
      domain: Double,
      seed: Long,
      noiseRate: Double = 0.02
  ): Pts = {
    val rnd     = new Random(seed)
    val centers = Array.fill(k)(Array.fill(d)(domain * (0.15 + 0.7 * rnd.nextDouble())))
    val rows = Seq.fill(n) {
      if (rnd.nextDouble() < noiseRate) Array.fill(d)(rnd.nextDouble() * domain)
      else {
        val c = centers(rnd.nextInt(k))
        Array.tabulate(d)(j => math.min(domain, math.max(0.0, c(j) + rnd.nextGaussian() * sigma)))
      }
    }
    Pts.fromArrays(d, rows)
  }

  /** [[clusteredPts]] with every coordinate rounded to a multiple of `step`,
    * so that many points share a position and many pairs lie exactly at a
    * multiple of `step` apart.
    */
  def quantizedPts(n: Int, d: Int, k: Int, sigma: Double, domain: Double, step: Double, seed: Long): Pts = {
    val p = clusteredPts(n, d, k, sigma, domain, seed)
    new Pts(n, d, p.data.map(x => math.rint(x / step) * step), p.ids)
  }

  /** Number of distinct positions of a point set. */
  def distinctPositions(pts: Pts): Int = (0 until pts.n).map(i => pts.point(i).toSeq).distinct.length

  /** Brute-force reference: exact jittered densities. */
  def bruteRho(pts: Pts, dcut: Double): Array[Double] = {
    val dcut2 = dcut * dcut
    Array.tabulate(pts.n) { i =>
      var cnt = 0
      var j = 0
      while (j < pts.n) {
        if (j != i && pts.dist2(i, j) < dcut2) cnt += 1
        j += 1
      }
      cnt + Jitter.frac(i)
    }
  }

  /** Brute-force reference: exact dependent points/distances given densities. */
  def bruteDependents(pts: Pts, rho: Array[Double]): (Array[Int], Array[Double]) = {
    val depId = new Array[Int](pts.n)
    val delta = new Array[Double](pts.n)
    var i = 0
    while (i < pts.n) {
      var bestId = -1
      var bestD2 = Double.PositiveInfinity
      var j = 0
      while (j < pts.n) {
        if (rho(j) > rho(i)) {
          val d2 = pts.dist2(i, j)
          if (d2 < bestD2) { bestD2 = d2; bestId = j }
        }
        j += 1
      }
      depId(i) = bestId
      delta(i) = if (bestId < 0) Double.PositiveInfinity else math.sqrt(bestD2)
      i += 1
    }
    (depId, delta)
  }

  /** [[bruteDependents]] with Scan's tie rule: among the nearest denser
    * points, the densest.
    */
  def bruteDependentsDensestTie(pts: Pts, rho: Array[Double]): Array[Int] =
    Array.tabulate(pts.n) { i =>
      var bestId = -1
      var bestD2 = Double.PositiveInfinity
      var j = 0
      while (j < pts.n) {
        if (rho(j) > rho(i)) {
          val d2 = pts.dist2(i, j)
          if (d2 < bestD2 || (d2 == bestD2 && rho(j) > rho(bestId))) { bestD2 = d2; bestId = j }
        }
        j += 1
      }
      bestId
    }

  /** Brute-force range count with strict radius. */
  def bruteRangeCount(pts: Pts, q: Array[Double], r: Double): Int = {
    val r2 = r * r
    (0 until pts.n).count(i => pts.dist2To(i, q) < r2)
  }

  /** Brute-force nearest neighbour over a subset of ids. */
  def bruteNearest(pts: Pts, ids: Seq[Int], q: Array[Double]): (Int, Double) = {
    var bestId = -1
    var bestD2 = Double.PositiveInfinity
    ids.foreach { i =>
      val d2 = pts.dist2To(i, q)
      if (d2 < bestD2) { bestD2 = d2; bestId = i }
    }
    (bestId, if (bestId < 0) Double.PositiveInfinity else math.sqrt(bestD2))
  }

  /** Number of broadcasts `body` makes: Spark numbers broadcasts in order,
    * and each Spark stage makes one, for its task binary.
    */
  def broadcastsIn(spark: SparkSession)(body: => Unit): Long = {
    val sc     = spark.sparkContext
    val before = sc.broadcast(0)
    body
    val after  = sc.broadcast(0)
    before.destroy(); after.destroy()
    after.id - before.id - 1
  }

  /** Number of [[Par]] registry entries `body` makes, one per fan-out: keys
    * are handed out in order.
    */
  def sharesIn(body: => Unit): Long = {
    val before = Par.keys.get
    body
    Par.keys.get - before
  }

  /** Runs `body` and checks that every [[Par]] registry entry made meanwhile
    * has left the registry. Returns the number of stages `body` ran.
    */
  def assertReleases(spark: SparkSession)(body: => Unit): Int = {
    val before = Par.keys.get
    val (_, stages, _) = sparkWork(spark)(body)
    val live = (before until Par.keys.get).filter(k => Par.registry.containsKey(k))
    assert(live.isEmpty, s"registry entries ${live.mkString(", ")} outlived their fan-out")
    stages
  }

  /** Runs `body` under its own job group and returns the number of jobs and
    * completed stages it ran and the shuffle bytes its tasks wrote.
    */
  def sparkWork(spark: SparkSession)(body: => Unit): (Int, Int, Long) = {
    val w = work(spark)(body)
    (w.jobs, w.stages, w.shuffleBytes)
  }

  /** What [[sparkWork]] counts, and the number of tasks each job ran, in job
    * order.
    */
  final case class Work(jobs: Int, stages: Int, shuffleBytes: Long, jobTasks: Seq[Int])

  /** Runs `body` under its own job group and returns the [[Work]] it did. */
  def work(spark: SparkSession)(body: => Unit): Work = {
    val sc = spark.sparkContext
    val group = "TestUtil-work"
    val marker = "TestUtil-marker"
    val jobOfStage = mutable.Map.empty[Int, Int]
    val tasks = mutable.SortedMap.empty[Int, Int]
    val markerJobs = mutable.Set.empty[Int]
    val completed = mutable.Set.empty[Int]
    var shuffleBytes = 0L
    val markerDone = new java.util.concurrent.CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")) match {
          case Some(`group`) => tasks(e.jobId) = 0; e.stageIds.foreach(jobOfStage(_) = e.jobId)
          case Some(`marker`) => markerJobs += e.jobId
          case _ => ()
        }
      }
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
        if (jobOfStage.contains(e.stageInfo.stageId)) completed += e.stageInfo.stageId
      }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
        jobOfStage.get(e.stageId).foreach { job =>
          tasks(job) += 1
          if (e.taskMetrics != null) shuffleBytes += e.taskMetrics.shuffleWriteMetrics.bytesWritten
        }
      }
      override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
        if (markerJobs.contains(e.jobId)) markerDone.countDown()
      }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "measured work")
      body
      // Listener events arrive in order, so once a later job has ended every
      // event of the measured work has been delivered.
      sc.setJobGroup(marker, "listener bus marker")
      sc.parallelize(Seq(1), 1).count()
      assert(markerDone.await(30, java.util.concurrent.TimeUnit.SECONDS), "listener bus did not drain")
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
    listener.synchronized(Work(tasks.size, completed.size, shuffleBytes, tasks.values.toSeq))
  }
}
