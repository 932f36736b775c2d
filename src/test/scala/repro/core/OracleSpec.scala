package repro.core

import repro.{Oracle, SparkSpec, TestUtil}

/** DuckDB oracle checks: Spark-computed densities and dependent distances are
  * diffed against SQL formulations of Definitions 1–3 evaluated by DuckDB over
  * the same points. Catches a wrong operator, not just "it ran".
  */
class OracleSpec extends SparkSpec {

  private def dist2Sql(d: Int): String =
    (0 until d)
      .map(j => s"(CAST(a.x$j AS DOUBLE) - CAST(b.x$j AS DOUBLE)) * (CAST(a.x$j AS DOUBLE) - CAST(b.x$j AS DOUBLE))")
      .mkString(" + ")

  private def checkRho(pts: Pts, dcut: Double, rho: Array[Double]): Unit = {
    import spark.implicits._
    val ptsDf = Pts.toDF(spark, pts)
    // our jittered densities, floored back to the integer count
    val ours = (0 until pts.n).map(i => (pts.ids(i), rho(i).toLong)).toDF("id", "rho")
    val sql =
      s"""SELECT CAST(a.id AS BIGINT) AS id,
         |       CAST(SUM(CASE WHEN CAST(a.id AS BIGINT) <> CAST(b.id AS BIGINT)
         |                       AND (${dist2Sql(pts.d)}) < ${dcut * dcut}
         |                     THEN 1 ELSE 0 END) AS BIGINT) AS rho
         |FROM pts a CROSS JOIN pts b
         |GROUP BY a.id""".stripMargin
    Oracle.assertEquivalent(ours, sql, "pts" -> ptsDf)
  }

  private def checkDelta(pts: Pts, rho: Array[Double], delta: Array[Double]): Unit = {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val ptsRho = Pts.toDF(spark, pts)
      .join((0 until pts.n).map(i => (pts.ids(i), rho(i))).toDF("id", "rho"), "id")
    val ours = (0 until pts.n)
      .filter(i => !delta(i).isInfinity)
      .map(i => (pts.ids(i), delta(i) * delta(i)))
      .toDF("id", "delta2")
    val sql =
      s"""SELECT CAST(a.id AS BIGINT) AS id, MIN(${dist2Sql(pts.d)}) AS delta2
         |FROM pts a JOIN pts b ON CAST(b.rho AS DOUBLE) > CAST(a.rho AS DOUBLE)
         |GROUP BY a.id""".stripMargin
    Oracle.assertEquivalent(ours.withColumn("delta2", col("delta2").cast("double")), sql, "pts" -> ptsRho)
  }

  for ((d, n) <- Seq((2, 150), (2, 300), (3, 200), (4, 150))) {
    test(s"Scan rho matches DuckDB self-join count (d=$d, n=$n)") {
      val pts = TestUtil.clusteredPts(n, d, k = 3, sigma = 30.0, domain = 1000.0, seed = 200L + d)
      val res = ScanDPC.run(spark, pts, DPCParams(dcut = 60.0))
      checkRho(pts, 60.0, res.rho)
    }

    test(s"Scan delta matches DuckDB min-over-denser query (d=$d, n=$n)") {
      val pts = TestUtil.clusteredPts(n, d, k = 3, sigma = 30.0, domain = 1000.0, seed = 210L + d)
      val res = ScanDPC.run(spark, pts, DPCParams(dcut = 60.0))
      checkDelta(pts, res.rho, res.delta)
    }
  }

  test("Ex-DPC rho and delta pass the oracle (2d)") {
    val pts = TestUtil.clusteredPts(250, 2, k = 4, sigma = 25.0, domain = 1000.0, seed = 220)
    val res = ExDPC.run(spark, pts, DPCParams(dcut = 50.0))
    checkRho(pts, 50.0, res.rho)
    checkDelta(pts, res.rho, res.delta)
  }

  test("Ex-DPC rho and delta pass the oracle (3d)") {
    val pts = TestUtil.clusteredPts(200, 3, k = 3, sigma = 40.0, domain = 1000.0, seed = 221)
    val res = ExDPC.run(spark, pts, DPCParams(dcut = 80.0))
    checkRho(pts, 80.0, res.rho)
    checkDelta(pts, res.rho, res.delta)
  }

  test("Approx-DPC computes exact densities (oracle, 2d)") {
    val pts = TestUtil.clusteredPts(250, 2, k = 4, sigma = 25.0, domain = 1000.0, seed = 222)
    val res = ApproxDPC.run(spark, pts, DPCParams(dcut = 50.0))
    checkRho(pts, 50.0, res.rho)
  }

  test("CFSFDP-A computes exact densities (oracle, 3d)") {
    val pts = TestUtil.clusteredPts(200, 3, k = 3, sigma = 40.0, domain = 1000.0, seed = 223)
    val res = repro.cfsfdp.CFSFDPA.run(spark, pts, DPCParams(dcut = 80.0))
    checkRho(pts, 80.0, res.rho)
  }
}
