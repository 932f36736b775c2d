package repro.core

import repro.{SparkSpec, TestUtil}

/** Approx-DPC: exact densities, Theorem 4 (identical cluster centers to
  * Ex-DPC), exact dependent distances beyond dcut, and high Rand index.
  */
class ApproxDPCSpec extends SparkSpec {

  for ((d, n, dcut) <- Seq((2, 400, 40.0), (2, 1000, 25.0), (3, 500, 60.0), (4, 300, 80.0))) {
    test(s"densities are exact (d=$d, n=$n)") {
      val pts = TestUtil.clusteredPts(n, d, k = 3, sigma = dcut, domain = 1000.0, seed = 600L + d)
      val res = ApproxDPC.run(spark, pts, DPCParams(dcut))
      assert(res.rho.toSeq === TestUtil.bruteRho(pts, dcut).toSeq)
    }
  }

  for ((d, n, dcut) <- Seq((2, 400, 40.0), (3, 500, 60.0), (4, 300, 80.0))) {
    test(s"dependent distances: approximation contract holds (d=$d, n=$n)") {
      val pts  = TestUtil.clusteredPts(n, d, k = 3, sigma = dcut, domain = 1000.0, seed = 610L + d)
      val res  = ApproxDPC.run(spark, pts, DPCParams(dcut))
      val rhoB = TestUtil.bruteRho(pts, dcut)
      val (_, deltaB) = TestUtil.bruteDependents(pts, rhoB)
      (0 until pts.n).foreach { i =>
        if (res.delta(i) == dcut && res.depId(i) >= 0 && res.delta(i) != deltaB(i)) {
          // approximated: a denser point within dcut must truly exist
          assert(deltaB(i) <= dcut + 1e-9, s"point $i approximated without close denser point")
          assert(res.rho(res.depId(i)) > res.rho(i))
        } else {
          // exact path: must equal the true dependent distance
          if (deltaB(i).isInfinity) assert(res.delta(i).isInfinity)
          else assert(math.abs(res.delta(i) - deltaB(i)) < 1e-7, s"point $i exact path wrong")
        }
      }
      // Theorem 4 precondition: every delta > dcut is exact
      (0 until pts.n).foreach { i =>
        if (deltaB(i) > dcut && !deltaB(i).isInfinity)
          assert(math.abs(res.delta(i) - deltaB(i)) < 1e-7, s"point $i with delta>dcut must be exact")
      }
    }
  }

  for ((d, n, k, sigma, dcut) <- Seq(
      (2, 800, 4, 20.0, 40.0),
      (2, 1200, 6, 15.0, 30.0),
      (3, 800, 3, 30.0, 60.0),
      (4, 500, 3, 40.0, 90.0)
    )) {
    test(s"Theorem 4: same cluster centers as Ex-DPC (d=$d, n=$n, k=$k)") {
      val pts    = TestUtil.clusteredPts(n, d, k, sigma, domain = 1000.0, seed = 620L + d + n)
      val params = DPCParams(dcut, rhoMin = 5.0)
      val ex     = ExDPC.run(spark, pts, params)
      val deltaMin = DecisionGraph.deltaMinForK(ex, params.rhoMin, k, dcut)
      val ap = ApproxDPC.run(spark, pts, params)
      assert(
        Labels.centers(ap, params.rhoMin, deltaMin).toSeq ===
          Labels.centers(ex, params.rhoMin, deltaMin).toSeq
      )
    }
  }

  test("20k duplicate-heavy points on a quantized grid: exact densities and Theorem 4's centers") {
    // Step 10 and dcut 20: about 9 copies per position, and every pair two
    // steps apart lies exactly at dcut.
    val pts = TestUtil.quantizedPts(20000, 2, k = 4, sigma = 40.0, domain = 1000.0, step = 10.0, seed = 650)
    assert(TestUtil.distinctPositions(pts) < pts.n / 4)
    val params = DPCParams(dcut = 20.0, rhoMin = 5.0)
    val ex = ExDPC.run(spark, pts, params)
    val ap = ApproxDPC.run(spark, pts, params)
    assert(ap.rho.toSeq === ex.rho.toSeq)
    val deltaMin = DecisionGraph.deltaMinForK(ex, params.rhoMin, 4, params.dcut)
    val centers  = Labels.centers(ex, params.rhoMin, deltaMin).toSeq
    assert(centers.length === 4)
    assert(Labels.centers(ap, params.rhoMin, deltaMin).toSeq === centers)
  }

  test("a d_cut near 1.7e7: the joint range search still finds a neighbour at the superset's edge") {
    // Point 1 is its cell's center and point 2 lies within d_cut of point 0,
    // almost at distance d_cut + rmax from the center: an absolute pad of
    // 1e-9 on that radius is below one ulp and left point 2 out.
    val dcut = 17155211.97804232
    val c    = 0.5 * dcut / math.sqrt(2.0)
    val pts  = Pts.fromArrays(2, Seq(
      Array(12121291.276333775, 12124058.23538113), Array(c, c), Array(24249087.11835766, 24257395.20530638)))
    val brute = TestUtil.bruteRho(pts, dcut)
    assert(brute(0).toLong === 2L)
    assert(ExDPC.run(spark, pts, DPCParams(dcut)).rho.toSeq === brute.toSeq)
    assert(ApproxDPC.run(spark, pts, DPCParams(dcut)).rho.toSeq === brute.toSeq)
  }

  test("Rand index vs Ex-DPC is near 1 on clustered data") {
    val pts    = TestUtil.clusteredPts(1500, 2, k = 5, sigma = 18.0, domain = 1000.0, seed = 630)
    val params = DPCParams(dcut = 36.0, rhoMin = 5.0)
    val ex     = ExDPC.run(spark, pts, params)
    val deltaMin = DecisionGraph.deltaMinForK(ex, params.rhoMin, 5, params.dcut)
    val exL = Labels.assign(ex, params.rhoMin, deltaMin)
    val apL = Labels.assign(ApproxDPC.run(spark, pts, params), params.rhoMin, deltaMin)
    assert(RandIndex.of(exL, apL) > 0.95)
  }

  test("degenerate inputs: n=1 and n=2") {
    val one = Pts.fromArrays(2, Seq(Array(1.0, 1.0)))
    val r1  = ApproxDPC.run(spark, one, DPCParams(dcut = 1.0))
    assert(r1.delta(0).isInfinity && r1.depId(0) === -1)

    val two = Pts.fromArrays(2, Seq(Array(0.0, 0.0), Array(300.0, 400.0)))
    val r2  = ApproxDPC.run(spark, two, DPCParams(dcut = 10.0))
    val peak = if (r2.rho(0) > r2.rho(1)) 0 else 1
    assert(r2.delta(peak).isInfinity)
    assert(math.abs(r2.delta(1 - peak) - 500.0) < 1e-9)
  }

  test("all points in one cell: everyone depends on p*") {
    val pts = Pts.fromArrays(2, (0 until 20).map(i => Array(1.0 + i * 0.01, 1.0)))
    val res = ApproxDPC.run(spark, pts, DPCParams(dcut = 100.0))
    val star = (0 until 20).maxBy(i => res.rho(i))
    (0 until 20).foreach { i =>
      if (i == star) assert(res.delta(i).isInfinity)
      else assert(res.depId(i) === star && res.delta(i) === 100.0)
    }
  }

  test("memBytes includes grid and trees") {
    val pts  = TestUtil.clusteredPts(500, 2, 3, 20.0, 1000.0, seed = 640)
    val res  = ApproxDPC.run(spark, pts, DPCParams(dcut = 40.0))
    val grid = new repro.grid.Grid(pts, 40.0 / math.sqrt(2.0))
    assert(res.memBytes >= repro.kdtree.MaxRhoKdTree.memBytes(pts.n, pts.d) + grid.memBytes)
  }

  test("chooseS satisfies Equation (2) boundary") {
    val s = ExactDependents.chooseS(50000, 3)
    assert(s >= 2 && s < 64)
    val ns = 50000.0 / s
    assert(ns <= (s - 1) * math.pow(ns, 1.0 - 1.0 / 3))
  }

  test("ExactDependents matches brute force on a random instance") {
    val pts  = TestUtil.uniformPts(600, 3, 1000.0, seed = 641)
    val rho  = TestUtil.bruteRho(pts, 80.0)
    val (_, deltaB) = TestUtil.bruteDependents(pts, rho)
    val queries = (0 until 600 by 7).toArray
    val out = ExactDependents.compute(spark, pts, rho, Array.tabulate(600)(identity), queries)
    assert(out.length === queries.length)
    out.foreach { case (q, dep, dd) =>
      if (deltaB(q).isInfinity) assert(dd.isInfinity && dep === -1)
      else {
        assert(math.abs(dd - deltaB(q)) < 1e-7, s"query $q")
        assert(rho(dep) > rho(q))
      }
    }
  }

  test("ExactDependents with a restricted universe") {
    val pts      = TestUtil.uniformPts(300, 2, 1000.0, seed = 642)
    val rho      = TestUtil.bruteRho(pts, 50.0)
    val universe = (0 until 300 by 2).toArray
    val queries  = (0 until 300 by 10).toArray // all even, subset of universe
    val out = ExactDependents.compute(spark, pts, rho, universe, queries)
    out.foreach { case (q, dep, dd) =>
      val cands = universe.filter(j => rho(j) > rho(q))
      if (cands.isEmpty) assert(dep === -1 && dd.isInfinity)
      else {
        val best = cands.map(j => pts.dist(q, j)).min
        assert(math.abs(dd - best) < 1e-7)
        assert(universe.contains(dep) && rho(dep) > rho(q))
      }
    }
  }
}
