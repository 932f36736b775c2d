package repro.core

import repro.{SparkSpec, TestUtil}
import repro.cfsfdp.CFSFDPA

/** The four exact paths (brute reference, Scan, R-tree + Scan, Ex-DPC,
  * CFSFDP-A) must agree bit-for-bit on densities and (up to distance ties) on
  * dependent distances.
  */
class ExactAlgosSpec extends SparkSpec {

  private def checkAgainstBrute(res: DPCResult, pts: Pts, dcut: Double, algo: String): Unit = {
    val rhoB = TestUtil.bruteRho(pts, dcut)
    checkAgainst(res, pts, rhoB, TestUtil.bruteDependents(pts, rhoB)._2, algo)
  }

  /** `rho` equal to `rhoB`, `delta` within 1e-7 of `deltaB`, every dependent
    * point denser.
    */
  private def checkAgainst(res: DPCResult, pts: Pts, rhoB: Array[Double], deltaB: Array[Double], algo: String): Unit = {
    assert(res.rho.toSeq === rhoB.toSeq, s"$algo: densities differ from brute force")
    var i = 0
    while (i < pts.n) {
      if (deltaB(i).isInfinity) assert(res.delta(i).isInfinity, s"$algo: point $i should be the peak")
      else assert(math.abs(res.delta(i) - deltaB(i)) < 1e-7, s"$algo: delta($i) ${res.delta(i)} != ${deltaB(i)}")
      // the dependent point must be denser (valid forest edge)
      if (res.depId(i) >= 0) assert(res.rho(res.depId(i)) > res.rho(i), s"$algo: dep of $i not denser")
      i += 1
    }
  }

  private val configs = Seq(
    (2, 300, 40.0, "2d/300"),
    (2, 900, 25.0, "2d/900"),
    (3, 400, 60.0, "3d/400"),
    (4, 300, 80.0, "4d/300"),
    (8, 200, 300.0, "8d/200")
  )

  for ((d, n, dcut, tag) <- configs) {
    lazy val pts = TestUtil.clusteredPts(n, d, k = 3, sigma = dcut, domain = 1000.0, seed = 500L + d)

    test(s"Scan matches brute force ($tag)") {
      checkAgainstBrute(ScanDPC.run(spark, pts, DPCParams(dcut)), pts, dcut, "Scan")
    }
    test(s"Ex-DPC matches brute force ($tag)") {
      val res = ExDPC.run(spark, pts, DPCParams(dcut))
      checkAgainstBrute(res, pts, dcut, "Ex-DPC")
      // The kd-tree sums the same squared differences as brute force, so
      // Ex-DPC's delta is bit-identical, not just close.
      val (_, deltaB) = TestUtil.bruteDependents(pts, res.rho)
      (0 until pts.n).foreach { i =>
        assert(java.lang.Double.compare(res.delta(i), deltaB(i)) == 0, s"Ex-DPC: delta($i) ${res.delta(i)} != ${deltaB(i)}")
      }
    }
    test(s"R-tree + Scan matches brute force ($tag)") {
      checkAgainstBrute(RTreeScanDPC.run(spark, pts, DPCParams(dcut)), pts, dcut, "R-tree + Scan")
    }
    test(s"CFSFDP-A matches brute force ($tag)") {
      checkAgainstBrute(CFSFDPA.run(spark, pts, DPCParams(dcut)), pts, dcut, "CFSFDP-A")
    }
  }

  // Step 10 and dcut 20: about 9 copies per position, and every pair two
  // steps apart lies exactly at dcut (as in ApproxDPCSpec).
  private lazy val dup = {
    val pts  = TestUtil.quantizedPts(20000, 2, k = 4, sigma = 40.0, domain = 1000.0, step = 10.0, seed = 650)
    val rhoB = TestUtil.bruteRho(pts, 20.0)
    (pts, rhoB, TestUtil.bruteDependents(pts, rhoB)._2)
  }

  for (algo <- Seq[DPCAlgorithm](ScanDPC, RTreeScanDPC, CFSFDPA, ExDPC)) {
    test(s"${algo.name}: 20k duplicate-heavy points on a quantized grid match brute force") {
      val (pts, rhoB, deltaB) = dup
      assert(TestUtil.distinctPositions(pts) < pts.n / 4)
      checkAgainst(algo.run(spark, pts, DPCParams(dcut = 20.0)), pts, rhoB, deltaB, algo.name)
    }
  }

  // Scan's dependent phase reads the point set its density phase broadcast.
  // Besides one task binary per Spark stage, a Scan run broadcasts the points
  // and the dependent phase's order and rank; CFSFDP-A adds its three pivot
  // structures.
  for ((algo, others) <- Seq[(DPCAlgorithm, Int)]((ScanDPC, 2), (CFSFDPA, 5))) {
    test(s"${algo.name} broadcasts the point set once per run") {
      val pts = TestUtil.clusteredPts(2000, 2, k = 3, sigma = 30.0, domain = 1000.0, seed = 512)
      var bcasts = 0L
      val (_, stages, _) = TestUtil.sparkWork(spark) {
        bcasts = TestUtil.broadcastsIn(spark)(algo.run(spark, pts, DPCParams(dcut = 40.0)))
      }
      assert(bcasts === stages + 1 + others)
    }
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

  test("Ex-DPC: degenerate inputs (n=1, n=2, duplicates)") {
    val one = Pts.fromArrays(2, Seq(Array(1.0, 1.0)))
    val r1  = ExDPC.run(spark, one, DPCParams(dcut = 1.0))
    assert(r1.delta(0).isInfinity && r1.depId(0) === -1)

    val two = Pts.fromArrays(2, Seq(Array(0.0, 0.0), Array(3.0, 4.0)))
    val r2  = ExDPC.run(spark, two, DPCParams(dcut = 10.0))
    val peak = if (r2.rho(0) > r2.rho(1)) 0 else 1
    assert(r2.delta(peak).isInfinity)
    assert(math.abs(r2.delta(1 - peak) - 5.0) < 1e-9)

    val dup = Pts.fromArrays(2, Seq.fill(5)(Array(2.0, 2.0)))
    val rd  = ExDPC.run(spark, dup, DPCParams(dcut = 1.0))
    assert(rd.delta.count(_.isInfinity) === 1)
    assert(rd.delta.count(_ == 0.0) === 4)
  }

  test("Ex-DPC: 20k identical points (one deep kd-tree chain) give one root and zero deltas") {
    val n   = 20000
    val pts = Pts.fromArrays(2, Seq.fill(n)(Array(5.0, -7.0)))
    val r   = ExDPC.run(spark, pts, DPCParams(dcut = 1.0))
    assert(r.delta.count(_.isInfinity) === 1)
    assert(r.depId.count(_ == -1) === 1)
    assert(r.delta.count(_ == 0.0) === n - 1)
  }

  test("Scan and Ex-DPC report non-negative phase times and Ex-DPC memory") {
    val pts = TestUtil.uniformPts(500, 2, 100.0, seed = 511)
    val r   = ExDPC.run(spark, pts, DPCParams(dcut = 10.0))
    assert(r.times.densityMs >= 0 && r.times.dependentMs >= 0)
    assert(r.memBytes > 0)
    val s = ScanDPC.run(spark, pts, DPCParams(dcut = 10.0))
    assert(s.times.totalMs >= 0)
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
