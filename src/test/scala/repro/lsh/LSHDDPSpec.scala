package repro.lsh

import repro.{SparkSpec, TestUtil}
import repro.core._

/** LSH-DDP: approximation semantics and degradation behaviour. */
class LSHDDPSpec extends SparkSpec {

  test("approximate densities never exceed the exact ones") {
    val pts  = TestUtil.clusteredPts(600, 2, k = 3, sigma = 25.0, domain = 1000.0, seed = 800)
    val res  = LSHDDP.run(spark, pts, DPCParams(dcut = 50.0))
    val rhoB = TestUtil.bruteRho(pts, 50.0)
    (0 until pts.n).foreach { i =>
      assert(res.rho(i).toLong <= rhoB(i).toLong, s"point $i: approx rho above exact")
    }
  }

  /** Duplicate-heavy inputs with their `d_cut`, LSH-DDP's result, and which
    * pairs share a bucket of LSH-DDP's hash family in some table. 797 is
    * prime, so no core count above 1 divides it and the static ranges are
    * uneven.
    */
  private lazy val quantized = Seq(
    (TestUtil.quantizedPts(800, 2, k = 3, sigma = 30.0, domain = 1000.0, step = 5.0, seed = 806), 30.0),
    (TestUtil.quantizedPts(800, 5, k = 3, sigma = 30.0, domain = 1000.0, step = 40.0, seed = 807), 60.0),
    (TestUtil.quantizedPts(797, 3, k = 3, sigma = 30.0, domain = 1000.0, step = 10.0, seed = 808), 40.0)
  ).map { case (pts, dcut) =>
    assert(TestUtil.distinctPositions(pts) < pts.n)
    val params = DPCParams(dcut = dcut)
    val lsh    = new PStableLSH(pts.d, params.lshTables, params.lshLen, params.lshWidthFactor * dcut, seed = 7L)
    val keys   = Array.tabulate(lsh.m, pts.n)((t, i) => lsh.key(t, pts.point(i)))
    val mates  = (i: Int, j: Int) => j != i && (0 until lsh.m).exists(t => keys(t)(i) == keys(t)(j))
    (pts, dcut, LSHDDP.run(spark, pts, params), mates)
  }

  test("densities count, bit for bit, the distinct bucket mates within dcut") {
    quantized.foreach { case (pts, dcut, res, mates) =>
      val rho = Array.tabulate(pts.n) { i =>
        (0 until pts.n).count(j => pts.dist2(i, j) < dcut * dcut && mates(i, j)) + Jitter.frac(i)
      }
      assert(res.rho.toSeq === rho.toSeq, s"d = ${pts.d}")
      // Some neighbour shares no bucket, so a count of all neighbours differs.
      assert(rho.toSeq != TestUtil.bruteRho(pts, dcut).toSeq, s"d = ${pts.d}")
    }
  }

  test("dependent points are, bit for bit, the smallest id among the nearest denser bucket mates, else the full scan's") {
    quantized.foreach { case (pts, _, res, mates) =>
      val rho = res.rho
      var ties, fallbacks = 0
      (0 until pts.n).foreach { i =>
        val denser   = (0 until pts.n).filter(j => rho(j) > rho(i))
        val inBucket = denser.filter(mates(i, _))
        val among    = if (inBucket.nonEmpty) inBucket else denser
        val best     = if (among.isEmpty) Double.PositiveInfinity else among.map(pts.dist2(i, _)).min
        // In ascending id order, so the first is the smallest id.
        val near     = among.filter(j => pts.dist2(i, j) == best)
        val dep      = near.headOption.getOrElse(-1)
        if (inBucket.nonEmpty && near.length > 1) ties += 1
        if (inBucket.isEmpty && denser.nonEmpty) fallbacks += 1
        assert(res.depId(i) === dep, s"d = ${pts.d}: depId($i)")
        val delta = if (dep < 0) Double.PositiveInfinity else pts.dist(i, dep)
        assert(java.lang.Double.compare(res.delta(i), delta) == 0, s"d = ${pts.d}: delta($i) ${res.delta(i)} != $delta")
      }
      // Both rules are exercised.
      assert(ties > 0, s"d = ${pts.d}: no point has equidistant nearest denser bucket mates")
      assert(fallbacks > 0, s"d = ${pts.d}: no point takes the full-scan fallback")
    }
  }

  test("an LSH key outside the Int range fails before any Spark job") {
    // w = 1e-12 and coordinates near 1e6 give keys near 1e18.
    val pts = Pts.fromArrays(2, Seq(Array(1e6, 1e6), Array(1e6 + 1.0, 1e6 - 1.0), Array(-1e6, 1e6)))
    var e: IllegalArgumentException = null
    val (jobs, _, _) = TestUtil.sparkWork(spark) {
      e = intercept[IllegalArgumentException](LSHDDP.run(spark, pts, DPCParams(dcut = 1.0, lshWidthFactor = 1e-12)))
    }
    assert(jobs === 0)
    assert(e.getMessage.contains("side 1.0E-12") && e.getMessage.contains("outside the Int range"), e.getMessage)
  }

  test("dependency edges point to denser points (valid forest)") {
    val pts = TestUtil.clusteredPts(500, 3, k = 3, sigma = 30.0, domain = 1000.0, seed = 801)
    val res = LSHDDP.run(spark, pts, DPCParams(dcut = 60.0))
    (0 until pts.n).foreach { i =>
      if (res.depId(i) >= 0) assert(res.rho(res.depId(i)) > res.rho(i))
      else assert(res.delta(i).isInfinity)
    }
    assert(res.delta.count(_.isInfinity) === 1)
  }

  test("with one huge bucket LSH-DDP degenerates to the exact Scan result") {
    val pts  = TestUtil.clusteredPts(300, 2, k = 2, sigma = 20.0, domain = 1000.0, seed = 802)
    val res  = LSHDDP.run(spark, pts, DPCParams(dcut = 40.0, lshTables = 1, lshLen = 1, lshWidthFactor = 1e9))
    val rhoB = TestUtil.bruteRho(pts, 40.0)
    assert(res.rho.toSeq === rhoB.toSeq)
    val (_, deltaB) = TestUtil.bruteDependents(pts, rhoB)
    (0 until pts.n).foreach { i =>
      if (deltaB(i).isInfinity) assert(res.delta(i).isInfinity)
      else assert(math.abs(res.delta(i) - deltaB(i)) < 1e-7)
    }
  }

  test("fallback scan finds the true dependent point w.r.t. approximate densities") {
    val pts = TestUtil.clusteredPts(400, 2, k = 4, sigma = 15.0, domain = 1000.0, seed = 803)
    val res = LSHDDP.run(spark, pts, DPCParams(dcut = 30.0))
    // every returned delta must be the distance to some denser point, and no
    // denser point may be closer than the bucket-found one ONLY in the
    // fallback case; at minimum deltas upper-bound the true nearest-denser.
    (0 until pts.n).foreach { i =>
      if (res.depId(i) >= 0) {
        assert(math.abs(res.delta(i) - pts.dist(i, res.depId(i))) < 1e-9)
        val trueBest = (0 until pts.n)
          .filter(j => res.rho(j) > res.rho(i))
          .map(j => pts.dist(i, j)).min
        assert(res.delta(i) >= trueBest - 1e-9)
      }
    }
  }

  test("reasonable Rand index on clustered data") {
    val pts    = TestUtil.clusteredPts(1500, 2, k = 4, sigma = 18.0, domain = 1000.0, seed = 804)
    val params = DPCParams(dcut = 36.0, rhoMin = 5.0)
    val ex     = ExDPC.run(spark, pts, params)
    val deltaMin = DecisionGraph.deltaMinForK(ex, params.rhoMin, 4, params.dcut)
    val exL = Labels.assign(ex, params.rhoMin, deltaMin)
    val lsL = Labels.assign(LSHDDP.run(spark, pts, params), params.rhoMin, deltaMin)
    val ri  = RandIndex.of(exL, lsL)
    assert(ri > 0.7, s"LSH-DDP RI $ri unexpectedly low")
  }

  test("memory model counts the M tables") {
    val pts = TestUtil.uniformPts(400, 2, 1000.0, seed = 805)
    val r2  = LSHDDP.run(spark, pts, DPCParams(dcut = 40.0, lshTables = 2))
    val r8  = LSHDDP.run(spark, pts, DPCParams(dcut = 40.0, lshTables = 8))
    assert(r8.memBytes > r2.memBytes)
  }

  test("20k duplicate-heavy points on a quantized grid: one root, every dependent point denser") {
    val pts = TestUtil.quantizedPts(20000, 2, k = 4, sigma = 40.0, domain = 1000.0, step = 10.0, seed = 650)
    assert(TestUtil.distinctPositions(pts) < pts.n / 4)
    val res = LSHDDP.run(spark, pts, DPCParams(dcut = 20.0))
    assert(res.depId.count(_ < 0) === 1)
    assert(res.delta.count(_.isInfinity) === 1)
    (0 until pts.n).foreach { i =>
      if (res.depId(i) >= 0) assert(res.rho(res.depId(i)) > res.rho(i), s"dep of $i not denser")
    }
  }

  test("degenerate input: n=1") {
    val one = Pts.fromArrays(2, Seq(Array(1.0, 1.0)))
    val r   = LSHDDP.run(spark, one, DPCParams(dcut = 1.0))
    assert(r.delta(0).isInfinity && r.depId(0) === -1)
  }
}
