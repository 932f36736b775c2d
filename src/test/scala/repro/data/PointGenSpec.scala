package repro.data

import org.apache.spark.sql.catalyst.plans.logical.Range
import repro.{SparkSpec, TestUtil}
import repro.core.{DPCParams, ExDPC, Pts}

/** Dataset generators: schema, determinism of centers, domains, and the
  * density regime required by the paper (rho_avg << n).
  */
class PointGenSpec extends SparkSpec {

  test("mixture: schema and row count") {
    val centers = PointGen.gridCenters(k = 4, d = 3, domain = 100.0, seed = 1)
    val df = PointGen.mixture(spark, 500, 3, centers, Array.fill(4)(5.0), 0.1, 100.0, seed = 2)
    assert(df.columns.toSeq === Seq("id", "x0", "x1", "x2"))
    assert(df.count() === 500)
  }

  test("mixture: the id range has a fixed partition count, not one per core") {
    val centers = PointGen.gridCenters(k = 2, d = 2, domain = 100.0, seed = 1)
    val df      = PointGen.mixture(spark, 500, 2, centers, Array.fill(2)(5.0), 0.1, 100.0, seed = 2)
    val slices  = df.queryExecution.logical.collectLeaves().collect { case r: Range => r.numSlices }
    assert(slices === Seq(Some(PointGen.Slices)))
    assert(PointGen.Slices === 4)
  }

  test("mixture: all coordinates within the domain") {
    val centers = PointGen.gridCenters(k = 3, d = 2, domain = 50.0, seed = 3)
    val pts = Pts.fromDF(PointGen.mixture(spark, 1000, 2, centers, Array.fill(3)(10.0), 0.2, 50.0, seed = 4))
    (0 until pts.n).foreach { i =>
      (0 until 2).foreach { j =>
        val c = pts.coord(i, j)
        assert(c >= 0.0 && c <= 50.0)
      }
    }
  }

  test("gridCenters: deterministic, inside domain, pairwise separated") {
    val a = PointGen.gridCenters(k = 15, d = 2, domain = 1e5, seed = 31L)
    val b = PointGen.gridCenters(k = 15, d = 2, domain = 1e5, seed = 31L)
    assert(a.map(_.toSeq).toSeq === b.map(_.toSeq).toSeq)
    a.foreach(c => c.foreach(x => assert(x >= 0 && x <= 1e5)))
    for (i <- a.indices; j <- a.indices if i < j) {
      val dist = math.sqrt(a(i).zip(a(j)).map { case (x, y) => (x - y) * (x - y) }.sum)
      assert(dist > 1e4, s"centers $i and $j too close: $dist")
    }
  }

  test("gridCenters: works for every dataset dimensionality") {
    for ((k, d) <- Seq((13, 2), (20, 3), (12, 4), (25, 4), (10, 8))) {
      val cs = PointGen.gridCenters(k, d, 1e5, seed = 99)
      assert(cs.length === k)
      assert(cs.forall(_.length == d))
    }
  }

  test("mixture without noise stays near centers") {
    val centers = Array(Array(20.0, 20.0), Array(80.0, 80.0))
    val pts = Pts.fromDF(PointGen.mixture(spark, 400, 2, centers, Array.fill(2)(1.0), 0.0, 100.0, seed = 5))
    (0 until pts.n).foreach { i =>
      val dists = centers.map(c => math.sqrt(pts.dist2To(i, c)))
      assert(dists.min < 10.0, s"point $i far from every center")
    }
  }

  val specs: Seq[(DatasetSpec, Int)] = Seq(
    (Datasets.syn(0.03), 3000),
    (Datasets.sSet(1), 3000),
    (Datasets.sSet(4), 3000),
    (Datasets.airline, 4000),
    (Datasets.household, 4000),
    (Datasets.pamap2, 4000),
    (Datasets.sensor, 3000)
  )

  for ((spec, n) <- specs) {
    test(s"${spec.name}: schema, size, and domain") {
      val df = spec.generate(spark, n)
      assert(df.columns.length === spec.d + 1)
      val pts = Pts.fromDF(df)
      assert(pts.n === n)
      (0 until math.min(pts.n, 500)).foreach { i =>
        (0 until pts.d).foreach(j => assert(pts.coord(i, j) >= 0 && pts.coord(i, j) <= spec.domain))
      }
    }
  }

  for ((spec, n) <- specs) {
    test(s"${spec.name}: density regime rho_avg << n at default dcut (scaled)") {
      // At reduced n the absolute densities shrink but must stay meaningful:
      // not everywhere zero, not a constant fraction of n.
      val pts = Pts.fromDF(spec.generate(spark, n))
      val rho = TestUtil.bruteRho(pts, spec.dcut)
      val avg = rho.map(_.toLong).sum.toDouble / pts.n
      assert(avg > 0.5, s"${spec.name}: rho_avg $avg too small — dcut/sigma mistuned")
      assert(avg < pts.n / 4.0, s"${spec.name}: rho_avg $avg ~ n — no density peaks visible")
    }
  }

  test("Syn noise rate shifts the noise point count") {
    def noiseCount(rate: Double): Int = {
      val spec = Datasets.syn(rate)
      val pts  = Pts.fromDF(spec.generate(spark, 4000))
      val res  = ExDPC.run(spark, pts, DPCParams(spec.dcut))
      res.rho.count(_ < spec.rhoMin)
    }
    val lo = noiseCount(0.01)
    val hi = noiseCount(0.16)
    assert(hi > lo, s"noise 0.16 should yield more low-density points ($hi vs $lo)")
  }
}
