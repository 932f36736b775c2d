package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Center selection, label propagation, decision-graph thresholds, Rand index. */
class LabelsSpec extends AnyFunSuite {

  private def res(rho: Array[Double], depId: Array[Int], delta: Array[Double]) =
    new DPCResult(rho, depId, delta, PhaseTimes(0, 0), 0)

  // A hand-built forest: 0 is the global peak (center), 1->0, 2->1, 3->2;
  // 4 is a second center, 5->4; 6 is low-density noise chained to 5.
  private val rho   = Array(10.1, 9.2, 8.3, 7.4, 9.9, 6.5, 0.6)
  private val depId = Array(-1, 0, 1, 2, 0, 4, 5)
  private val delta = Array(Double.PositiveInfinity, 1.0, 1.0, 1.0, 50.0, 1.0, 1.0)

  test("centers: global peak and high-delta point") {
    val cs = Labels.centers(res(rho, depId, delta), rhoMin = 2.0, deltaMin = 10.0)
    assert(cs.toSeq === Seq(0, 4))
  }

  test("labels propagate down dependency chains") {
    val l = Labels.assign(res(rho, depId, delta), rhoMin = 2.0, deltaMin = 10.0)
    assert(l(0) === 0 && l(1) === 0 && l(2) === 0 && l(3) === 0)
    assert(l(4) === 1 && l(5) === 1)
  }

  test("noise overrides propagated label") {
    val l = Labels.assign(res(rho, depId, delta), rhoMin = 2.0, deltaMin = 10.0)
    assert(l(6) === -1)
  }

  test("noise points cannot be centers") {
    val r = res(Array(0.5, 5.1), Array(-1, 0), Array(Double.PositiveInfinity, 99.0))
    val cs = Labels.centers(r, rhoMin = 2.0, deltaMin = 10.0)
    assert(cs.toSeq === Seq(1))
  }

  test("NaN density (S-Approx non-picked) is never noise") {
    val r = res(Array(Double.NaN, 5.1), Array(1, -1), Array(0.5, Double.PositiveInfinity))
    val l = Labels.assign(r, rhoMin = 2.0, deltaMin = 10.0)
    assert(l(0) === 0 && l(1) === 0) // both in the single center's cluster
  }

  test("chain through a noise point still reaches the center") {
    // 2 -> 1(noise) -> 0(center)
    val r = res(Array(9.5, 1.2, 5.3), Array(-1, 0, 1), Array(Double.PositiveInfinity, 0.1, 0.1))
    val l = Labels.assign(r, rhoMin = 2.0, deltaMin = 10.0)
    assert(l(0) === 0 && l(1) === -1 && l(2) === 0)
  }

  test("unreachable root labelled -2 when the peak is noise") {
    val r = res(Array(0.5, 0.9), Array(-1, 0), Array(Double.PositiveInfinity, 1.0))
    val l = Labels.assign(r, rhoMin = 2.0, deltaMin = 10.0)
    assert(l.toSeq === Seq(-1, -1)) // both noise here
    val r2 = res(Array(1.5, 5.9), Array(-1, 0), Array(Double.PositiveInfinity, 1.0))
    val l2 = Labels.assign(r2, rhoMin = 2.0, deltaMin = 10.0)
    assert(l2(0) === -1 && l2(1) === -2)
  }

  test("deltaMinForK isolates exactly k centers") {
    val n     = 100
    val rho   = Array.tabulate(n)(i => 50.0 + Jitter.frac(i))
    val delta = Array.tabulate(n)(i => if (i < 3) 1000.0 + i else 2.0 + (i % 7) * 0.1)
    val r     = res(rho, Array.fill(n)(0), delta)
    val dm    = DecisionGraph.deltaMinForK(r, rhoMin = 1.0, k = 3, dcut = 5.0)
    assert(dm > 5.0)
    assert(delta.count(_ >= dm) === 3)
  }

  test("deltaMinForK handles the infinite top delta") {
    val rho   = Array(3.1, 3.2, 3.3)
    val delta = Array(Double.PositiveInfinity, 4.0, 2.0)
    val r     = res(rho, Array(-1, 0, 1), delta)
    val dm    = DecisionGraph.deltaMinForK(r, rhoMin = 1.0, k = 1, dcut = 1.0)
    assert(dm > 4.0 && !dm.isInfinity)
    assert(delta.count(_ >= dm) === 1)
  }

  test("deltaMinForK clamps above dcut") {
    val rho   = Array(3.1, 3.2)
    val delta = Array(Double.PositiveInfinity, 0.5)
    val r     = res(rho, Array(-1, 0), delta)
    val dm    = DecisionGraph.deltaMinForK(r, rhoMin = 1.0, k = 1, dcut = 10.0)
    assert(dm > 10.0)
  }

  test("deltaMinForK rejects k below 1, naming k") {
    val r = res(Array(3.1, 3.2), Array(-1, 0), Array(Double.PositiveInfinity, 0.5))
    Seq(0, -2).foreach { k =>
      val e = intercept[IllegalArgumentException](DecisionGraph.deltaMinForK(r, rhoMin = 1.0, k = k, dcut = 1.0))
      assert(e.getMessage.contains(s"k ($k)"), e.getMessage)
    }
  }

  test("DPCParams rejects deltaMin <= dcut (Definition 5)") {
    Seq(10.0, 2.5, 0.0).foreach { dm =>
      val e = intercept[IllegalArgumentException](DPCParams(dcut = 10.0, deltaMin = dm))
      assert(e.getMessage.contains(s"deltaMin ($dm)") && e.getMessage.contains("dcut (10.0)"), e.getMessage)
    }
    assert(DPCParams(dcut = 10.0, deltaMin = math.nextUp(10.0)).deltaMin > 10.0)
  }

  test("DPCParams rejects a dcut whose square underflows to 0, naming it") {
    Seq(1e-170, 1e-162, Double.MinPositiveValue).foreach { dc =>
      val e = intercept[IllegalArgumentException](DPCParams(dcut = dc))
      assert(e.getMessage.contains(s"dcut ($dc)"), e.getMessage)
    }
    assert(DPCParams(dcut = 1e-160).dcut * 1e-160 > 0)
  }

  test("DPCParams rejects LSH parameters LSH-DDP cannot hash with, naming the field") {
    val bad = Seq(
      ("lshTables (0)", () => DPCParams(dcut = 1.0, lshTables = 0)),
      ("lshTables (-2)", () => DPCParams(dcut = 1.0, lshTables = -2)),
      ("lshLen (0)", () => DPCParams(dcut = 1.0, lshLen = 0)),
      ("lshWidthFactor (0.0)", () => DPCParams(dcut = 1.0, lshWidthFactor = 0.0)),
      ("lshWidthFactor (-1.5)", () => DPCParams(dcut = 1.0, lshWidthFactor = -1.5)),
      ("lshWidthFactor (NaN)", () => DPCParams(dcut = 1.0, lshWidthFactor = Double.NaN)),
      ("lshWidthFactor (Infinity)", () => DPCParams(dcut = 1.0, lshWidthFactor = Double.PositiveInfinity))
    )
    bad.foreach { case (field, make) =>
      val e = intercept[IllegalArgumentException](make())
      assert(e.getMessage.contains(field), e.getMessage)
    }
    val ok = DPCParams(dcut = 1.0, lshTables = 1, lshLen = 1, lshWidthFactor = Double.MinPositiveValue)
    assert(ok.lshTables === 1 && ok.lshLen === 1)
  }

  test("DPCParams rejects a NaN rhoMin and an epsilon that is not positive or makes an infinite cell, naming the value") {
    val bad = Seq(
      ("rhoMin (NaN)", () => DPCParams(dcut = 1.0, rhoMin = Double.NaN)),
      ("epsilon (Infinity)", () => DPCParams(dcut = 1.0, epsilon = Double.PositiveInfinity)),
      ("epsilon (NaN)", () => DPCParams(dcut = 1.0, epsilon = Double.NaN)),
      ("epsilon (0.0)", () => DPCParams(dcut = 1.0, epsilon = 0.0)),
      ("epsilon (-1.0)", () => DPCParams(dcut = 1.0, epsilon = -1.0)),
      ("epsilon (1.7976931348623157E308)", () => DPCParams(dcut = 10.0, epsilon = Double.MaxValue))
    )
    bad.foreach { case (field, make) =>
      val e = intercept[IllegalArgumentException](make())
      assert(e.getMessage.contains(field), e.getMessage)
    }
    // No point noise, every point noise, and a huge epsilon are all well defined.
    val ok = DPCParams(dcut = 1.0, rhoMin = Double.NegativeInfinity, epsilon = Double.MaxValue)
    assert(ok.rhoMin.isInfinite && ok.epsilon === Double.MaxValue)
    assert(DPCParams(dcut = 1.0, rhoMin = Double.PositiveInfinity).rhoMin.isInfinite)
  }

  test("Rand index: identical labelings score 1") {
    val a = Array(0, 0, 1, 1, 2, -1)
    assert(RandIndex.of(a, a) === 1.0)
  }

  test("Rand index: permuted label names still score 1") {
    val a = Array(0, 0, 1, 1, 2, 2)
    val b = Array(5, 5, 9, 9, 0, 0)
    assert(RandIndex.of(a, b) === 1.0)
  }

  test("Rand index: known small example") {
    // a: {0,1},{2,3}; b: {0},{1,2,3} -> agreements: pairs (2,3) same-same,
    // (0,2),(0,3) diff-diff -> 3 of 6
    val a = Array(0, 0, 1, 1)
    val b = Array(0, 1, 1, 1)
    assert(math.abs(RandIndex.of(a, b) - 0.5) < 1e-12)
  }

  test("Rand index: symmetric") {
    val rnd = new scala.util.Random(80)
    val a   = Array.fill(200)(rnd.nextInt(5))
    val b   = Array.fill(200)(rnd.nextInt(4) - 1)
    assert(RandIndex.of(a, b) === RandIndex.of(b, a))
  }

  test("Rand index: completely split vs single cluster") {
    val a = Array.tabulate(50)(identity) // all singletons
    val b = Array.fill(50)(0)            // one cluster
    assert(RandIndex.of(a, b) === 0.0)
  }

  test("Rand index: rejects mismatched lengths, tolerates n<2") {
    intercept[IllegalArgumentException](RandIndex.of(Array(1), Array(1, 2)))
    assert(RandIndex.of(Array(1), Array(2)) === 1.0)
  }
}
