package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One traced interval, in milliseconds since the tracer's origin. */
final case class Span(id: Int, parent: Int, name: String, startMs: Double, endMs: Double) {
  def json: Map[String, Any] =
    Map("id" -> id, "parent" -> parent, "name" -> name, "start_ms" -> startMs, "end_ms" -> endMs)
}

/** Spans recorded from the benchmark's side of each call into a layer, so
  * traced and untraced runs share one code path. Spans are kept in memory and
  * written out when the run ends.
  */
final class Tracer {
  /** When false, [[span]] only runs its body. */
  var enabled             = false
  private val originNs    = System.nanoTime()
  private val originEpoch = System.currentTimeMillis()
  private var nextId      = 0
  private var open        = List(-1) // stack of open span ids; -1 is the root
  val spans               = mutable.ArrayBuffer.empty[Span]

  private def nowMs: Double = (System.nanoTime() - originNs) / 1e6

  /** Milliseconds since the origin of a wall-clock epoch timestamp. */
  def fromEpoch(epochMs: Long): Double = (epochMs - originEpoch).toDouble

  private def newId(): Int = { nextId += 1; nextId }

  /** Records `body` as a span named `name`, nested under the innermost open span. */
  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id    = newId()
      val start = nowMs
      open = id :: open
      try body
      finally {
        open = open.tail
        spans += Span(id, open.head, name, start, nowMs)
      }
    }

  /** Id of the span closed last. */
  def lastId: Int = spans.last.id

  /** Adds a span recorded elsewhere (Spark's listener) and returns its id. */
  def add(parent: Int, name: String, startMs: Double, endMs: Double): Int = {
    val id = newId()
    spans += Span(id, parent, name, startMs, endMs)
    id
  }
}

/** What Spark reported about the jobs of one call, gathered by [[SparkEvents]]. */
final case class TaskEv(stageId: Int, launch: Long, finish: Long, shuffleWriteBytes: Long)
final case class StageEv(stageId: Int, name: String, submitted: Long, completed: Long)
final case class JobEv(jobId: Int, start: Long, end: Long, stageIds: Seq[Int])

final case class SparkCalls(jobs: Seq[JobEv], stages: Seq[StageEv], tasks: Seq[TaskEv]) {

  /** Union of the jobs' intervals, in ms. */
  def sparkMs: Double = {
    val iv = jobs.map(j => (j.start, j.end)).sortBy(_._1)
    var total = 0L
    var curS  = Long.MinValue
    var curE  = Long.MinValue
    iv.foreach { case (s, e) =>
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total.toDouble
  }

  def taskBusyMs: Double = tasks.map(t => (t.finish - t.launch).toDouble).sum

  def shuffleWriteBytes: Double = tasks.map(_.shuffleWriteBytes.toDouble).sum

  /** Max over mean task time of the stage with the most task time. */
  def taskSkew: Double = {
    val byStage = tasks.groupBy(_.stageId).values.toSeq
    if (byStage.isEmpty) 1.0
    else {
      val ts   = byStage.maxBy(_.map(t => t.finish - t.launch).sum).map(t => (t.finish - t.launch).toDouble)
      val mean = ts.sum / ts.length
      if (mean <= 0) 1.0 else ts.max / mean
    }
  }

  /** Adds job, stage and task spans; a job nests under `parentAt(its start)`. */
  def addSpans(tr: Tracer, parentAt: Double => Int): Unit = {
    val stageById = stages.map(s => s.stageId -> s).toMap
    val tasksBy   = tasks.groupBy(_.stageId)
    jobs.foreach { j =>
      val start = tr.fromEpoch(j.start)
      val jid   = tr.add(parentAt(start), s"spark.job ${j.jobId}", start, tr.fromEpoch(j.end))
      j.stageIds.flatMap(stageById.get).foreach { s =>
        val sid = tr.add(jid, s"spark.stage ${s.stageId}: ${s.name}", tr.fromEpoch(s.submitted), tr.fromEpoch(s.completed))
        tasksBy.getOrElse(s.stageId, Nil).foreach { t =>
          tr.add(sid, "spark.task", tr.fromEpoch(t.launch), tr.fromEpoch(t.finish))
        }
      }
    }
  }
}

/** Benchmark-side `SparkListener`: collects job, stage and task events until
  * [[take]] hands them over.
  */
final class SparkEvents extends SparkListener {
  private val jobStart = mutable.LinkedHashMap.empty[Int, (Long, Seq[Int])]
  private val jobs     = mutable.ArrayBuffer.empty[JobEv]
  private val stages   = mutable.ArrayBuffer.empty[StageEv]
  private val tasks    = mutable.ArrayBuffer.empty[TaskEv]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobStart(e.jobId) = (e.time, e.stageIds)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (t, ids) => jobs += JobEv(e.jobId, t, e.time, ids) }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val s = e.stageInfo
    stages += StageEv(s.stageId, s.name, s.submissionTime.getOrElse(0L), s.completionTime.getOrElse(0L))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val bytes = Option(e.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L)
    tasks += TaskEv(e.stageId, e.taskInfo.launchTime, e.taskInfo.finishTime, bytes)
  }

  /** Waits for Spark to deliver every event posted so far, then returns and
    * clears them.
    */
  def take(sc: SparkContext): SparkCalls = {
    org.apache.spark.ListenerBusAccess.drain(sc)
    synchronized {
      val out = SparkCalls(jobs.toList, stages.toList, tasks.toList)
      jobs.clear(); stages.clear(); tasks.clear()
      out
    }
  }
}
