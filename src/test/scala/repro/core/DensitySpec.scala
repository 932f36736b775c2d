package repro.core

import repro.{SparkSpec, TestUtil}

/** [[Density.rho]] with a brute-force kernel equals [[TestUtil.bruteRho]] bit
  * for bit, whatever the groups.
  */
class DensitySpec extends SparkSpec {

  private def rho(pts: Pts, dcut: Double, groups: Array[Array[Int]]): Array[Double] = {
    val dcut2 = dcut * dcut
    val bcPts = spark.sparkContext.broadcast(pts)
    try Density.rho(spark, pts.n, groups) { () =>
      val p = bcPts.value
      i => (0 until p.n).count(j => j != i && p.dist2(i, j) < dcut2)
    } finally bcPts.destroy()
  }

  private def check(pts: Pts, dcut: Double, groups: Array[Array[Int]]): Unit =
    assert(rho(pts, dcut, groups).toSeq === TestUtil.bruteRho(pts, dcut).toSeq)

  private lazy val pts = TestUtil.quantizedPts(3000, 2, k = 3, sigma = 40.0, domain = 1000.0, step = 10.0, seed = 900)

  test("round-robin groups match brute force") {
    check(pts, 20.0, Par.indexed(spark, pts.n))
  }

  test("static ranges match brute force") {
    check(pts, 20.0, Par.ranges(pts.n, 3))
  }

  test("a single group runs on the driver with no Spark job and matches brute force") {
    val one = Array(Array.range(0, pts.n))
    assert(TestUtil.sparkWork(spark)(check(pts, 20.0, one)) === ((0, 0, 0L)))
  }

  test("n = 0 gives no densities and n = 1 gives the jitter alone") {
    val empty = new Pts(0, 2, Array.empty, Array.empty)
    assert(rho(empty, 1.0, Par.indexed(spark, 0)).isEmpty)
    val one = Pts.fromArrays(2, Seq(Array(1.0, 2.0)))
    assert(rho(one, 1.0, Par.indexed(spark, 1)).toSeq === Seq(Jitter.frac(0)))
  }
}
