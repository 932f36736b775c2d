package perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.SparkContext
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import org.apache.spark.util.SizeEstimator
import repro.core._
import repro.grid.Grid
import repro.kdtree.KdTree
import repro.kmeans.KMeans
import repro.lsh.PStableLSH
import repro.rtree.RTree
import scala.collection.mutable

/** Command-line options of [[Main]]. */
final case class Opts(
    workload: Workload, seed: Long, seconds: Double, trace: Boolean, gitSha: String, sourceSha256: String)

/** The DPC benchmark: one workload, one closed loop with one caller, printing
  * its metrics and, as the last line, a JSON summary. See perfbench/README.md.
  *
  * {{{
  * perfbench.Main --workload <name> [--seed n] [--seconds s] [--trace 0|1]
  *                [--git-sha sha] [--source-sha256 digest]
  * }}}
  *
  * Run from the root of a checkout; the run record goes to `.bench_build/results/`.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val opts = kv.get("workload").flatMap(Workloads.byName) match {
      case Some(w) =>
        Opts(w, kv.getOrElse("seed", "0").toLong, kv.getOrElse("seconds", "10").toDouble,
          kv.getOrElse("trace", "0") == "1",
          kv.getOrElse("git-sha", "unavailable"), kv.getOrElse("source-sha256", "unavailable"))
      case None =>
        System.err.println(s"--workload must be one of: ${Workloads.all.map(_.name).mkString(", ")}")
        sys.exit(2)
    }
    try new Bench(opts).run()
    catch {
      case e: Throwable =>
        e.printStackTrace()
        sys.exit(1)
    }
    sys.exit(0)
  }
}

/** One benchmark run. Every timed operation is one algorithm, points in to
  * labels out, checked by [[Gates]]; with `trace` the run also times the calls
  * into each layer from outside and records spans.
  */
final class Bench(o: Opts) {
  private val w = o.workload

  /** Setups per run; `setup_s` is their median. */
  private val SetupReps = 3

  /** Fewest measured rounds; each time metric is a median over rounds. */
  private val MinRounds = 3

  /** Repetitions of each layer call in a traced run; the metric is their median. */
  private val LayerReps = 3

  private val tracer     = new Tracer
  private val values     = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  private val units      = mutable.HashMap.empty[String, String]
  private val reported   = mutable.LinkedHashSet.empty[String]
  private val problems   = mutable.ArrayBuffer.empty[String]
  private val lastResult = mutable.HashMap.empty[String, DPCResult]
  private var attempted  = 0
  private var failed     = 0

  private def record(name: String, unit: String, v: Double, report: Boolean = true): Unit = {
    values.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v
    units(name) = unit
    if (report) reported += name
  }

  private def median(name: String): Double = {
    val s = values(name).sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  private def session(): SparkSession =
    SparkSession.builder()
      .master("local[*]")
      .appName(s"perfbench ${w.name}")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** Session start, input generation and caching, and the Ex-DPC ground truth
    * of the full and the baseline input: the set-up `setup_s` times.
    */
  private def setup(): (SparkSession, Input, Input) = {
    val spark = session()
    val df    = w.generate(spark, o.seed)
    val full  = Input.prepare(spark, df, w)
    val base  = if (w.baselineN >= w.n) full else Input.prepare(spark, df.filter(col("id") < w.baselineN), w)
    (spark, full, base)
  }

  def run(): Unit = {
    val t0 = System.nanoTime()
    val (spark, full, base) =
      if (o.trace) setup()
      else {
        val runs = (1 to SetupReps).map { r =>
          val s0 = System.nanoTime()
          val s  = setup()
          record("setup_s", "s", (System.nanoTime() - s0) / 1e9)
          if (r < SetupReps) s._1.stop()
          s
        }
        runs.last
      }
    val sc = spark.sparkContext
    // One unrecorded round first: the first full-size repetition of an
    // algorithm in a JVM runs markedly slower than later ones.
    val w0 = System.nanoTime()
    round(spark, full, base, measured = false, Seq(false))
    val warmS = (System.nanoTime() - w0) / 1e9

    // Closed loop: rounds until --seconds have passed and at least MinRounds
    // ran. A traced run times each operation untraced and traced back to
    // back, alternating which goes first, so drift does not bias the overhead.
    val m0 = System.nanoTime()
    var rounds = 0
    while (rounds < MinRounds || (System.nanoTime() - m0) / 1e9 < o.seconds) {
      val modes = if (!o.trace) Seq(false) else if (rounds % 2 == 0) Seq(false, true) else Seq(true, false)
      round(spark, full, base, measured = true, modes)
      rounds += 1
    }
    val measuredS = (System.nanoTime() - m0) / 1e9

    if (o.trace) {
      val untraced = Algo.all.map(a => median(s"${a.key}_s")).sum
      val traced   = Algo.all.map(a => median(s"${a.key}.traced_s")).sum
      record("trace.overhead_pct", "%", 100.0 * (traced / untraced - 1.0))
      tracing(sc)(ev => layers(spark, full, base, ev))
    }

    val ctx = Json.obj(
      "workload" -> w.name, "seed" -> o.seed, "trace" -> o.trace, "seconds" -> o.seconds,
      "warmup_s" -> warmS, "measured_s" -> measuredS, "rounds" -> rounds, "run_s" -> (System.nanoTime() - t0) / 1e9,
      "n" -> full.n, "d" -> w.spec.d, "d_cut" -> full.params.dcut, "eps" -> w.eps,
      "rho_min" -> full.params.rhoMin, "delta_min" -> full.params.deltaMin,
      "baseline_n" -> base.n, "baseline_rho_min" -> base.params.rhoMin,
      "baseline_delta_min" -> base.params.deltaMin,
      "default_parallelism" -> sc.defaultParallelism,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "git_sha" -> o.gitSha, "source_sha256" -> o.sourceSha256
    )
    spark.stop()
    report(ctx)
  }

  /** Each algorithm once per entry of `traced`, the paper's on the full input
    * and the baselines on the baseline input.
    */
  private def round(spark: SparkSession, full: Input, base: Input, measured: Boolean, traced: Seq[Boolean]): Unit =
    Algo.all.foreach { a =>
      val in = if (Algo.paper.contains(a)) full else base
      traced.foreach(t => op(spark, a, in, measured, t))
    }

  /** Runs `body` with spans on and the benchmark's listener registered. */
  private def tracing[A](sc: SparkContext)(body: SparkEvents => A): A = {
    val ev = new SparkEvents
    sc.addSparkListener(ev)
    tracer.enabled = true
    try body(ev)
    finally {
      tracer.enabled = false
      sc.removeSparkListener(ev)
    }
  }

  /** One operation: `Pts.fromDF` on the cached input, the algorithm, and
    * `Labels.assign`, timed as one unit and then checked.
    */
  private def op(spark: SparkSession, a: Algo, in: Input, measured: Boolean, traced: Boolean): Unit = {
    val k = a.key
    def timed(): (Either[String, (DPCResult, Array[Int])], Double) = {
      val t0 = System.nanoTime()
      val outcome =
        try {
          tracer.span(s"op $k") {
            val pts    = tracer.span("pts.fromDF")(Pts.fromDF(in.df))
            val res    = tracer.span(s"$k.run")(a.impl.run(spark, pts, in.params))
            val labels = tracer.span("labels.assign")(Labels.assign(res, in.params.rhoMin, in.params.deltaMin))
            Right((res, labels))
          }
        } catch { case e @ (_: Exception | _: StackOverflowError) => Left(e.toString) }
      (outcome, (System.nanoTime() - t0) / 1e6)
    }
    val sc = spark.sparkContext
    val ((outcome, ms), calls) =
      if (traced) tracing(sc)(ev => (timed(), Some(ev.take(sc)))) else (timed(), None)
    if (!measured) return

    attempted += 1
    outcome.fold(Some(_), { case (res, labels) => Gates.check(k, res, labels, in) }).foreach { why =>
      failed += 1
      System.err.println(s"FAILED $k on ${w.name}: $why")
    }
    if (!traced) {
      record(s"${k}_s", "s", ms / 1e3, report = !o.trace)
      outcome.foreach { case (_, labels) =>
        if (k == "approxdpc" || k == "sapproxdpc" || k == "lshddp")
          record(s"rand_$k", "ratio", RandIndex.of(in.labels, labels), report = !o.trace)
      }
    } else {
      record(s"$k.traced_s", "s", ms / 1e3, report = false)
      calls.foreach { c =>
        val opId = tracer.lastId
        val kids = tracer.spans.filter(_.parent == opId)
        c.addSpans(tracer, t => kids.filter(_.startMs <= t + 1).lastOption.fold(opId)(_.id))
        record(s"$k.spark_jobs", "count", c.jobs.size)
        record(s"$k.spark_stages", "count", c.stages.size)
        record(s"$k.spark_tasks", "count", c.tasks.size)
        record(s"$k.shuffle_write_bytes", "B", c.shuffleWriteBytes)
        record(s"$k.task_skew", "ratio", c.taskSkew)
        record(s"$k.spark_ms", "ms", c.sparkMs)
        record(s"$k.driver_ms", "ms", ms - c.sparkMs)
        record(s"$k.task_busy_ms", "ms", c.taskBusyMs)
      }
      outcome.foreach { case (res, _) =>
        lastResult(k) = res
        record(s"$k.rho_ms", "ms", res.times.densityMs.toDouble)
        record(s"$k.delta_ms", "ms", res.times.dependentMs.toDouble)
        if (res.memBytes > 0) record(s"$k.model_mb", "MiB", res.memBytes / 1048576.0) // Scan models none
      }
    }
  }

  /** Times `body` [[LayerReps]] times as `<name>_ms` under a span `name`,
    * with the Spark jobs it starts nested under that span.
    */
  private def layer[A](spark: SparkSession, ev: SparkEvents, name: String)(body: => A): A = {
    val outs = (1 to LayerReps).map { _ =>
      val t0  = System.nanoTime()
      val out = tracer.span(name)(body)
      record(s"${name}_ms", "ms", (System.nanoTime() - t0) / 1e6)
      val id = tracer.lastId
      ev.take(spark.sparkContext).addSpans(tracer, _ => id)
      out
    }
    outs.last
  }

  /** Calls into each layer from outside, on the inputs the algorithms use. */
  private def layers(spark: SparkSession, full: Input, base: Input, ev: SparkEvents): Unit = {
    import spark.implicits._
    val sc   = spark.sparkContext
    val dcut = full.params.dcut
    val pts  = layer(spark, ev, "pts.fromdf")(Pts.fromDF(full.df))
    val n    = pts.n
    layer(spark, ev, "par.noop")(Par.mapIndexed[Int](spark, n)(_ => Iterator.empty))
    val ptsBytes = SizeEstimator.estimate(pts)

    // Approx-DPC's grid and its LPT packing of cells onto tasks.
    val grid = layer(spark, ev, "grid.build")(new Grid(pts, dcut / math.sqrt(pts.d.toDouble)))
    record("grid.cells", "count", grid.nCells)
    record("grid.bytes", "B", (SizeEstimator.estimate(grid) - ptsBytes).toDouble)
    val costs  = grid.cells.map(_.length.toDouble)
    val groups = layer(spark, ev, "par.lpt")(Par.lpt(costs, sc.defaultParallelism))
    val loads  = groups.map(_.iterator.map(costs).sum)
    record("par.lpt_imbalance", "ratio", loads.max / (loads.sum / loads.length))

    val tree = layer(spark, ev, "kdtree.build")(new KdTree(pts).buildAll())
    record("kdtree.bytes", "B", (SizeEstimator.estimate(tree) - ptsBytes).toDouble)
    layer(spark, ev, "bcast.pts")(sc.broadcast(pts).destroy())
    layer(spark, ev, "bcast.kdtree")(sc.broadcast(tree).destroy())
    // The density kernel on one thread: the baseline exdpc.rho_speedup divides.
    val hits = layer(spark, ev, "kdtree.range_1t") {
      var s = 0L
      var i = 0
      while (i < n) { s += tree.rangeCount(pts.point(i), dcut); i += 1 }
      s
    }
    record("kdtree.range_avg", "count", hits.toDouble / n)
    record("exdpc.rho_speedup", "ratio", median("kdtree.range_1t_ms") / median("exdpc.rho_ms"))

    // Ex-DPC's sequential dependent phase, replayed in descending-rho order.
    val truth = full.truth
    val order = Array.tabulate(n)(identity).sortBy(i => -truth.rho(i))
    val dep = layer(spark, ev, "kdtree.incremental") {
      val inc = new KdTree(pts)
      val out = new Array[Int](n)
      order.foreach { i => out(i) = if (inc.size == 0) -1 else inc.nearest(pts.point(i))._1; inc.insert(i) }
      out
    }
    if (!dep.sameElements(truth.depId)) problems += "kdtree.incremental: dependent points differ from Ex-DPC's"
    layer(spark, ev, "labels.assign")(Labels.assign(truth, full.params.rhoMin, full.params.deltaMin))

    // Approx-DPC's undecided set P': the points it did not settle at distance d_cut.
    val apx    = lastResult("approxdpc")
    val pPrime = (0 until n).filter(i => apx.delta(i) != dcut).toArray
    record("dependents.undecided", "count", pPrime.length)
    record("dependents.s", "count", math.min(ExactDependents.chooseS(n, pts.d), n))
    val exact = layer(spark, ev, "dependents.exact") {
      ExactDependents.compute(spark, pts, apx.rho, Array.tabulate(n)(identity), pPrime)
    }
    if (exact.exists { case (q, d, dd) => apx.depId(q) != d || apx.delta(q) != dd })
      problems += "dependents.exact: differs from Approx-DPC's undecided points"

    // The baselines' layers, on their input.
    val bpts = Pts.fromDF(base.df)
    val bp   = base.params
    layer(spark, ev, "dependents.scan")(ScanDependents.compute(spark, bpts, base.truth.rho))
    layer(spark, ev, "rtree.build")(new RTree(bpts).buildAll())
    layer(spark, ev, "lsh.hash") {
      val lsh = new PStableLSH(bpts.d, bp.lshTables, bp.lshLen, bp.lshWidthFactor * bp.dcut, seed = 7L)
      var s = 0L
      for (t <- 0 until bp.lshTables; i <- 0 until bpts.n) s += lsh.key(t, bpts.point(i)).head
      s
    }
    val k = math.max(2, math.min(bpts.n, math.ceil(math.sqrt(bpts.n.toDouble)).toInt))
    layer(spark, ev, "kmeans.fit")(KMeans.fit(bpts, k, iters = 5))
  }

  /** Prints every reported metric with its unit and sample count, writes the
    * run's record, and prints the JSON summary as the last line.
    */
  private def report(ctx: Map[String, Any]): Unit = {
    val correct = failed == 0 && problems.isEmpty
    problems.foreach(p => System.err.println(s"FAILED $p"))
    println("context " + Json.render(ctx))
    reported.toSeq.foreach { name =>
      println(f"$name%-32s ${median(name)}%12.4f ${units(name)}%-6s median of ${values(name).size}")
    }
    println(f"failed_share = ${if (attempted == 0) 0.0 else failed.toDouble / attempted}%.4f ($failed of $attempted operations)")

    val metrics = Json.obj(reported.toSeq.map { name =>
      name -> Json.obj("value" -> median(name), "unit" -> units(name))
    }: _*)
    val dir  = new File(".bench_build/results")
    dir.mkdirs()
    val file = new File(dir, s"${w.name}-seed${o.seed}-trace${if (o.trace) 1 else 0}.json")
    val pw   = new PrintWriter(file)
    try pw.println(Json.render(Json.obj(
      "context" -> ctx, "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "samples" -> Json.obj(values.toSeq.map { case (k, v) => k -> v.toSeq }: _*),
      "spans" -> tracer.spans.map(_.json)
    )))
    finally pw.close()
    println(Json.render(Json.obj(
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed, "metrics" -> metrics
    )))
  }
}
