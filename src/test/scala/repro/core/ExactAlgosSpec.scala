package repro.core

import org.apache.spark.SparkException
import repro.{SparkSpec, TestUtil}
import repro.cfsfdp.CFSFDPA
import repro.kdtree.MaxRhoKdTree
import repro.lsh.LSHDDP

/** The four exact paths (Scan, R-tree + Scan, Ex-DPC, CFSFDP-A) must agree
  * bit for bit with the brute reference on densities and dependent distances.
  */
class ExactAlgosSpec extends SparkSpec {

  /** Brute-force densities, `delta`, and `depId` under Scan's tie rule. */
  private final class Brute(pts: Pts, dcut: Double) {
    val rho        = TestUtil.bruteRho(pts, dcut)
    val (depSmallest, delta) = TestUtil.bruteDependents(pts, rho)
    val depDensest = TestUtil.bruteDependentsDensestTie(pts, rho)
  }

  /** `rho` and `delta` bit-identical to brute force, every dependent point
    * denser, and for the algorithms whose dependent phase is
    * [[ScanDependents]] the densest of the nearest denser points, for Ex-DPC
    * the one with the smallest id.
    */
  private def check(res: DPCResult, pts: Pts, b: Brute, algo: DPCAlgorithm): Unit = {
    assert(res.rho.toSeq === b.rho.toSeq, s"${algo.name}: densities differ from brute force")
    var i = 0
    while (i < pts.n) {
      assert(java.lang.Double.compare(res.delta(i), b.delta(i)) == 0, s"${algo.name}: delta($i) ${res.delta(i)} != ${b.delta(i)}")
      // the dependent point must be denser (valid forest edge)
      if (res.depId(i) >= 0) assert(res.rho(res.depId(i)) > res.rho(i), s"${algo.name}: dep of $i not denser")
      if (scanDependents(algo))
        assert(res.depId(i) === b.depDensest(i), s"${algo.name}: depId($i) is not the densest nearest denser point")
      else assert(res.depId(i) === b.depSmallest(i), s"${algo.name}: depId($i) is not the smallest-id nearest denser point")
      i += 1
    }
  }

  private val exact          = Seq[DPCAlgorithm](ScanDPC, ExDPC, RTreeScanDPC, CFSFDPA)
  private val scanDependents = Set[DPCAlgorithm](ScanDPC, RTreeScanDPC, CFSFDPA)

  private val configs = Seq(
    (2, 300, 40.0, "2d/300"),
    (2, 900, 25.0, "2d/900"),
    (3, 400, 60.0, "3d/400"),
    (4, 300, 80.0, "4d/300"),
    (8, 200, 300.0, "8d/200")
  )

  // Every path sums the same squared differences as brute force, in
  // coordinate order, so `delta` is bit-identical, not just close.
  for ((d, n, dcut, tag) <- configs) {
    lazy val pts   = TestUtil.clusteredPts(n, d, k = 3, sigma = dcut, domain = 1000.0, seed = 500L + d)
    lazy val brute = new Brute(pts, dcut)
    for (algo <- exact) test(s"${algo.name} matches brute force ($tag)") {
      check(algo.run(spark, pts, DPCParams(dcut)), pts, brute, algo)
    }
  }

  // Step 10 and dcut 20: about 9 copies per position, and every pair two
  // steps apart lies exactly at dcut (as in ApproxDPCSpec).
  private lazy val dup = {
    val pts = TestUtil.quantizedPts(20000, 2, k = 4, sigma = 40.0, domain = 1000.0, step = 10.0, seed = 650)
    (pts, new Brute(pts, 20.0))
  }

  for (algo <- Seq[DPCAlgorithm](ScanDPC, RTreeScanDPC, CFSFDPA, ExDPC)) {
    test(s"${algo.name}: 20k duplicate-heavy points on a quantized grid match brute force") {
      val (pts, brute) = dup
      assert(TestUtil.distinctPositions(pts) < pts.n / 4)
      // The tie rule is exercised: the smallest and the densest of the
      // nearest denser points differ somewhere.
      assert(brute.depSmallest.toSeq != brute.depDensest.toSeq)
      check(algo.run(spark, pts, DPCParams(dcut = 20.0)), pts, brute, algo)
    }
  }

  // Each Spark job of a run is one fan-out, which makes one registry entry,
  // and a run broadcasts nothing but one task binary per Spark stage.
  for (algo <- Seq[DPCAlgorithm](ScanDPC, RTreeScanDPC, CFSFDPA, LSHDDP, ExDPC, ApproxDPC, SApproxDPC)) {
    test(s"${algo.name}: one registry entry per Spark job, one broadcast per stage") {
      val pts = TestUtil.clusteredPts(2000, 2, k = 3, sigma = 30.0, domain = 1000.0, seed = 512)
      var bcasts  = 0L
      var entries = 0L
      val (jobs, stages, _) = TestUtil.sparkWork(spark) {
        bcasts = TestUtil.broadcastsIn(spark) {
          entries = TestUtil.sharesIn(algo.run(spark, pts, DPCParams(dcut = 40.0)))
        }
      }
      assert(entries === jobs)
      assert(bcasts === stages)
    }
  }

  // A fan-out runs at most one task per core, and loading the frame one task
  // per partition of it.
  for (algo <- Seq[DPCAlgorithm](ScanDPC, RTreeScanDPC, CFSFDPA, LSHDDP, ExDPC, ApproxDPC, SApproxDPC)) {
    test(s"${algo.name}: no Spark job has more tasks than cores or input partitions") {
      val df    = Pts.toDF(spark, TestUtil.clusteredPts(2000, 2, k = 3, sigma = 30.0, domain = 1000.0, seed = 514))
      val bound = math.max(spark.sparkContext.defaultParallelism, df.rdd.getNumPartitions)
      val work  = TestUtil.work(spark)(algo.run(spark, Pts.fromDF(df), DPCParams(dcut = 40.0)))
      assert(work.jobs >= 2, "loading the frame and at least one fan-out")
      assert(work.jobTasks.max <= bound, s"tasks per job ${work.jobTasks.mkString(", ")} over $bound")
    }
  }

  test("ScanDependents leaves no registry entry when a task fails") {
    // rho names 1000 points but there are 10, so every task fails to copy
    // the rows of its Columns.
    val pts = TestUtil.uniformPts(10, 2, 100.0, seed = 513)
    val rho = Array.tabulate(1000)(i => (i % 13) + Jitter.frac(i))
    var entries = 0L
    val stages = TestUtil.assertReleases(spark) {
      entries = TestUtil.sharesIn(intercept[SparkException](ScanDependents.compute(spark, pts, rho)))
    }
    assert(stages >= 1 && entries === 1)
  }

  test("exact algorithms agree with each other end to end (labels)") {
    val pts    = TestUtil.clusteredPts(800, 2, k = 4, sigma = 20.0, domain = 1000.0, seed = 510)
    val params = DPCParams(dcut = 40.0, rhoMin = 5.0)
    val ex     = ExDPC.run(spark, pts, params)
    val deltaMin = DecisionGraph.deltaMinForK(ex, params.rhoMin, 4, params.dcut)
    val exL = Labels.assign(ex, params.rhoMin, deltaMin)
    Seq(ScanDPC, RTreeScanDPC, CFSFDPA).foreach { algo =>
      val r = algo.run(spark, pts, params)
      val l = Labels.assign(r, params.rhoMin, deltaMin)
      assert(RandIndex.of(exL, l) === 1.0, s"${algo.name} labels differ from Ex-DPC")
    }
  }

  // n = 1 leaves the scans an empty range, and the densest point of any input
  // an empty prefix of denser points.
  for (algo <- exact) test(s"${algo.name}: degenerate inputs (n=1, n=2, duplicates)") {
    val one = Pts.fromArrays(2, Seq(Array(1.0, 1.0)))
    val r1  = algo.run(spark, one, DPCParams(dcut = 1.0))
    assert(r1.delta(0).isInfinity && r1.depId(0) === -1)
    assert(r1.rho(0) === Jitter.frac(0))

    val two = Pts.fromArrays(2, Seq(Array(0.0, 0.0), Array(3.0, 4.0)))
    val r2  = algo.run(spark, two, DPCParams(dcut = 10.0))
    val peak = if (r2.rho(0) > r2.rho(1)) 0 else 1
    assert(r2.delta(peak).isInfinity && r2.depId(peak) === -1)
    assert(r2.delta(1 - peak) === 5.0 && r2.depId(1 - peak) === peak)

    val dup = Pts.fromArrays(2, Seq.fill(5)(Array(2.0, 2.0)))
    val rd  = algo.run(spark, dup, DPCParams(dcut = 1.0))
    assert(rd.rho.map(_.toLong).toSeq === Seq.fill(5)(4L))
    assert(rd.delta.count(_.isInfinity) === 1)
    assert(rd.delta.count(_ == 0.0) === 4)
  }

  // A dcut near the smallest DPCParams accepts has a subnormal square, which
  // still counts a point's own zero distance in the tree range counts that
  // subtract it.
  test("a dcut with a subnormal square gives non-negative densities") {
    val pts = Pts.fromArrays(2, Seq(Array(0.0, 0.0), Array(1.0, 0.0), Array(0.0, 1.0)))
    exact.foreach { algo =>
      val r = algo.run(spark, pts, DPCParams(dcut = 1e-160))
      assert(r.rho.toSeq === (0 until 3).map(Jitter.frac), algo.name)
    }
  }

  test("Ex-DPC: 20k identical points give one root and zero deltas") {
    val n   = 20000
    val pts = Pts.fromArrays(2, Seq.fill(n)(Array(5.0, -7.0)))
    val r   = ExDPC.run(spark, pts, DPCParams(dcut = 1.0))
    assert(r.delta.count(_.isInfinity) === 1)
    assert(r.depId.count(_ == -1) === 1)
    assert(r.delta.count(_ == 0.0) === n - 1)
    // Every point is at distance 0 from every denser one: the dependent point
    // is the smallest id among the denser points.
    var least = -1
    Order.descending(r.rho).foreach { i =>
      assert(r.depId(i) === least, s"depId($i)")
      least = if (least < 0) i else math.min(least, i)
    }
  }

  test("Ex-DPC models the memory of one kd-tree with its densities") {
    for ((n, d) <- Seq((1, 2), (500, 2), (3000, 3))) {
      val pts = TestUtil.uniformPts(n, d, 100.0, seed = 512L + n)
      assert(ExDPC.run(spark, pts, DPCParams(dcut = 10.0)).memBytes === MaxRhoKdTree.memBytes(n, d))
    }
  }

  // Every algorithm times its phases through one Run, and no fan-out of it
  // leaves a registry entry behind.
  for (algo <- Seq[DPCAlgorithm](ScanDPC, RTreeScanDPC, CFSFDPA, LSHDDP, ExDPC, ApproxDPC, SApproxDPC))
    test(s"${algo.name} reports non-negative phase times; no registry entry outlives the run") {
      val pts = TestUtil.uniformPts(500, 2, 100.0, seed = 511)
      var r: DPCResult = null
      TestUtil.assertReleases(spark) { r = algo.run(spark, pts, DPCParams(dcut = 10.0)) }
      assert(r.times.densityMs >= 0 && r.times.dependentMs >= 0)
      assert(r.memBytes > 0 || algo == ScanDPC) // Scan models none
    }

  test("rho excludes the point itself") {
    // two points closer than dcut: each has rho floor 1
    val pts = Pts.fromArrays(2, Seq(Array(0.0, 0.0), Array(1.0, 0.0)))
    val r   = ScanDPC.run(spark, pts, DPCParams(dcut = 5.0))
    assert(r.rho.map(_.toLong).toSeq === Seq(1L, 1L))
    val e = ExDPC.run(spark, pts, DPCParams(dcut = 5.0))
    assert(e.rho.map(_.toLong).toSeq === Seq(1L, 1L))
  }

  test("strict dcut: a pair exactly at dcut does not count") {
    val pts = Pts.fromArrays(1, Seq(Array(0.0), Array(10.0)))
    Seq[DPCAlgorithm](ScanDPC, ExDPC, RTreeScanDPC, CFSFDPA).foreach { algo =>
      val r = algo.run(spark, pts, DPCParams(dcut = 10.0))
      assert(r.rho.map(_.toLong).toSeq === Seq(0L, 0L), algo.name)
    }
  }
}
