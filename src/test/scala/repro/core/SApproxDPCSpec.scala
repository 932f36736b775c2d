package repro.core

import repro.{SparkSpec, TestUtil}
import repro.grid.Grid

/** S-Approx-DPC: picked-point semantics, dependent-distance upper-bound
  * guarantee, epsilon trade-off, and clustering accuracy.
  */
class SApproxDPCSpec extends SparkSpec {

  private def pickedOf(pts: Pts, dcut: Double, eps: Double): Array[Int] =
    new Grid(pts, eps * dcut / math.sqrt(pts.d.toDouble)).cells.map(_.min)

  for ((d, n, dcut, eps) <- Seq((2, 500, 40.0, 1.0), (3, 400, 60.0, 0.5), (2, 800, 30.0, 0.3))) {
    test(s"picked points carry exact densities (d=$d, n=$n, eps=$eps)") {
      val pts  = TestUtil.clusteredPts(n, d, k = 3, sigma = dcut, domain = 1000.0, seed = 700L + d)
      val res  = SApproxDPC.run(spark, pts, DPCParams(dcut, epsilon = eps))
      val rhoB = TestUtil.bruteRho(pts, dcut)
      val picked = pickedOf(pts, dcut, eps).toSet
      (0 until pts.n).foreach { i =>
        if (picked(i)) assert(res.rho(i) === rhoB(i), s"picked $i density wrong")
        else assert(res.rho(i).isNaN, s"non-picked $i should carry NaN density")
      }
    }

    test(s"non-picked points depend on their cell's picked point (d=$d, n=$n, eps=$eps)") {
      val pts  = TestUtil.clusteredPts(n, d, k = 3, sigma = dcut, domain = 1000.0, seed = 710L + d)
      val res  = SApproxDPC.run(spark, pts, DPCParams(dcut, epsilon = eps))
      val grid = new Grid(pts, eps * dcut / math.sqrt(pts.d.toDouble))
      val picked = grid.cells.map(_.min)
      (0 until pts.n).foreach { i =>
        val p = picked(grid.cellOf(i))
        if (i != p) {
          assert(res.depId(i) === p)
          assert(res.delta(i) === eps * dcut)
        }
      }
    }

    test(s"picked delta never underestimates the true delta (d=$d, n=$n, eps=$eps)") {
      val pts  = TestUtil.clusteredPts(n, d, k = 3, sigma = dcut, domain = 1000.0, seed = 720L + d)
      val res  = SApproxDPC.run(spark, pts, DPCParams(dcut, epsilon = eps))
      val rhoB = TestUtil.bruteRho(pts, dcut)
      val (_, deltaB) = TestUtil.bruteDependents(pts, rhoB)
      pickedOf(pts, dcut, eps).foreach { i =>
        if (!res.delta(i).isInfinity)
          assert(res.delta(i) >= deltaB(i) - 1e-9,
            s"picked $i: approx ${res.delta(i)} < exact ${deltaB(i)}")
      }
    }

    test(s"picked dependency edges go to denser picked points (d=$d, n=$n, eps=$eps)") {
      val pts = TestUtil.clusteredPts(n, d, k = 3, sigma = dcut, domain = 1000.0, seed = 730L + d)
      val res = SApproxDPC.run(spark, pts, DPCParams(dcut, epsilon = eps))
      pickedOf(pts, dcut, eps).foreach { i =>
        if (res.depId(i) >= 0) assert(res.rho(res.depId(i)) > res.rho(i))
        else assert(res.delta(i).isInfinity)
      }
    }
  }

  test("exactly one global peak among picked points") {
    val pts = TestUtil.clusteredPts(600, 2, k = 4, sigma = 20.0, domain = 1000.0, seed = 740)
    val res = SApproxDPC.run(spark, pts, DPCParams(dcut = 40.0, epsilon = 0.8))
    assert(res.delta.count(_.isInfinity) === 1)
  }

  test("small epsilon recovers Ex-DPC's clustering on well-separated data") {
    val pts    = TestUtil.clusteredPts(1200, 2, k = 4, sigma = 15.0, domain = 1000.0, seed = 750, noiseRate = 0.01)
    val params = DPCParams(dcut = 30.0, rhoMin = 5.0, epsilon = 0.2)
    val ex     = ExDPC.run(spark, pts, params)
    val deltaMin = DecisionGraph.deltaMinForK(ex, params.rhoMin, 4, params.dcut)
    val exL = Labels.assign(ex, params.rhoMin, deltaMin)
    val saL = Labels.assign(SApproxDPC.run(spark, pts, params), params.rhoMin, deltaMin)
    assert(RandIndex.of(exL, saL) > 0.9)
  }

  test("larger epsilon gives at most the accuracy of smaller epsilon (with slack)") {
    val pts    = TestUtil.clusteredPts(1500, 2, k = 5, sigma = 15.0, domain = 1000.0, seed = 760)
    val params = DPCParams(dcut = 30.0, rhoMin = 5.0)
    val ex     = ExDPC.run(spark, pts, params)
    val deltaMin = DecisionGraph.deltaMinForK(ex, params.rhoMin, 5, params.dcut)
    val exL = Labels.assign(ex, params.rhoMin, deltaMin)
    def ri(eps: Double): Double = {
      val r = SApproxDPC.run(spark, pts, params.copy(epsilon = eps))
      RandIndex.of(exL, Labels.assign(r, params.rhoMin, deltaMin))
    }
    val fine = ri(0.2)
    val coarse = ri(2.0)
    assert(fine > 0.85, s"eps=0.2 RI $fine")
    assert(coarse <= fine + 0.05, s"eps=2.0 RI $coarse should not beat eps=0.2 RI $fine")
  }

  test("fewer cells than points: grid sampling actually samples") {
    val pts  = TestUtil.clusteredPts(2000, 2, k = 3, sigma = 10.0, domain = 1000.0, seed = 770)
    val grid = new Grid(pts, 1.0 * 30.0 / math.sqrt(2.0))
    assert(grid.nCells < pts.n / 2, s"grid has ${grid.nCells} cells for ${pts.n} points")
  }

  for (eps <- Seq(0.5, 1.5)) {
    test(s"20k duplicate-heavy points on a quantized grid: exact picked rho, delta bound, one root (eps=$eps)") {
      val pts = TestUtil.quantizedPts(20000, 2, k = 4, sigma = 40.0, domain = 1000.0, step = 10.0, seed = 791)
      assert(TestUtil.distinctPositions(pts) < pts.n / 4)
      val dcut   = 20.0
      val params = DPCParams(dcut, epsilon = eps)
      val ex     = ExDPC.run(spark, pts, params)
      val res    = SApproxDPC.run(spark, pts, params)
      val picked = pickedOf(pts, dcut, eps)
      picked.foreach { i =>
        assert(res.rho(i) === ex.rho(i), s"picked $i density")
        assert(res.delta(i) >= ex.delta(i), s"picked $i: delta ${res.delta(i)} < Ex-DPC's ${ex.delta(i)}")
      }
      assert(picked.count(i => res.depId(i) < 0) === 1)
    }
  }

  test("memBytes includes grid and trees") {
    val pts  = TestUtil.clusteredPts(500, 2, 3, 20.0, 1000.0, seed = 640)
    val res  = SApproxDPC.run(spark, pts, DPCParams(dcut = 40.0, epsilon = 0.5))
    val grid = new Grid(pts, 0.5 * 40.0 / math.sqrt(2.0))
    assert(res.memBytes >= repro.kdtree.MaxRhoKdTree.memBytes(pts.n, pts.d) + grid.memBytes)
  }

  test("degenerate input: n=1") {
    val one = Pts.fromArrays(2, Seq(Array(1.0, 1.0)))
    val r   = SApproxDPC.run(spark, one, DPCParams(dcut = 1.0, epsilon = 0.5))
    assert(r.delta(0).isInfinity && r.depId(0) === -1)
  }

  test("fallback branch (|P'_pick|^2 > 4n): picked deltas bound Ex-DPC's, one picked root") {
    // Sparse noise with a small dcut: most picked points have no neighbour
    // cell within dcut, so they stay roots after phase 1.
    val pts    = TestUtil.clusteredPts(1500, 2, k = 3, sigma = 40.0, domain = 1000.0, seed = 790, noiseRate = 0.3)
    val dcut   = 8.0
    val eps    = 0.5
    val params = DPCParams(dcut, epsilon = eps)
    val grid   = new Grid(pts, eps * dcut / math.sqrt(pts.d.toDouble))
    val picked = grid.cells.map(_.min)
    val rhoB   = TestUtil.bruteRho(pts, dcut)
    // P'_pick recomputed from the input: picked points with no denser picked
    // point in a cell holding a point within dcut of them.
    val roots = picked.indices.filter { c =>
      val pi = picked(c)
      (0 until pts.n).forall { q =>
        val c2 = grid.cellOf(q)
        c2 == c || q == pi || pts.dist2(pi, q) >= dcut * dcut || rhoB(picked(c2)) <= rhoB(pi)
      }
    }.map(picked)
    assert(roots.length.toLong * roots.length > 4L * pts.n, s"|P'_pick| = ${roots.length} does not take the fallback")

    val res = SApproxDPC.run(spark, pts, params)
    val ex  = ExDPC.run(spark, pts, params)
    picked.foreach { i =>
      assert(res.delta(i) >= ex.delta(i), s"picked $i: delta ${res.delta(i)} < Ex-DPC's ${ex.delta(i)}")
    }
    assert(picked.count(i => res.depId(i) < 0) === 1)
    // The fallback answers every root exactly over the picked set.
    roots.foreach { pi =>
      val denser = picked.filter(j => rhoB(j) > rhoB(pi))
      if (denser.isEmpty) assert(res.depId(pi) === -1 && res.delta(pi).isInfinity)
      else assert(res.delta(pi) === denser.map(j => pts.dist(pi, j)).min, s"root $pi")
    }
  }

  test("phase-1 deltas are (1+eps)*dcut; phase-2 deltas are real distances") {
    val pts = TestUtil.clusteredPts(800, 2, k = 3, sigma = 25.0, domain = 1000.0, seed = 780)
    val eps = 0.7
    val dcut = 50.0
    val res = SApproxDPC.run(spark, pts, DPCParams(dcut, epsilon = eps))
    val picked = pickedOf(pts, dcut, eps)
    picked.foreach { i =>
      if (res.depId(i) >= 0) {
        val dd = res.delta(i)
        val isPhase1 = dd == (1 + eps) * dcut
        val isReal   = math.abs(dd - pts.dist(i, res.depId(i))) < 1e-9
        assert(isPhase1 || isReal, s"picked $i delta $dd is neither phase-1 bound nor real distance")
      }
    }
  }
}
