package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkSpec, TestUtil}

class PtsSpec extends SparkSpec {

  test("fromArrays stores coordinates row-major") {
    val pts = Pts.fromArrays(2, Seq(Array(1.0, 2.0), Array(3.0, 4.0)))
    assert(pts.n === 2 && pts.d === 2)
    assert(pts.coord(0, 0) === 1.0 && pts.coord(1, 1) === 4.0)
    assert(pts.point(1).toSeq === Seq(3.0, 4.0))
  }

  test("dist2 / dist / dist2To agree") {
    val pts = Pts.fromArrays(3, Seq(Array(0.0, 0.0, 0.0), Array(1.0, 2.0, 2.0)))
    assert(pts.dist2(0, 1) === 9.0)
    assert(pts.dist(0, 1) === 3.0)
    assert(pts.dist2To(0, Array(1.0, 2.0, 2.0)) === 9.0)
  }

  test("DataFrame round trip preserves points and ids") {
    val pts = TestUtil.uniformPts(97, 3, 10.0, seed = 60)
    val df  = Pts.toDF(spark, pts)
    assert(df.columns.toSeq === Seq("id", "x0", "x1", "x2"))
    val back = Pts.fromDF(df)
    assert(back.n === pts.n && back.d === pts.d)
    (0 until pts.n).foreach { i =>
      assert(back.ids(i) === pts.ids(i))
      assert(back.point(i).toSeq === pts.point(i).toSeq)
    }
  }

  test("fromDF orders by id") {
    import org.apache.spark.sql.functions._
    val pts = TestUtil.uniformPts(50, 2, 10.0, seed = 61)
    val df  = Pts.toDF(spark, pts).orderBy(rand(1))
    val back = Pts.fromDF(df)
    assert(back.ids.toSeq === (0 until 50).map(_.toLong))
  }

  test("fromDF rejects frames without coordinate columns") {
    import spark.implicits._
    val df = Seq((1L, "a")).toDF("id", "name")
    intercept[IllegalArgumentException](Pts.fromDF(df))
  }

  /** Pts.fromDF on rows `(id, x0, x1)` with nullable coordinates must throw
    * an IllegalArgumentException whose message contains `fragment`.
    */
  private def rejects(rows: Seq[Row], fragment: String): Unit = {
    val schema = StructType(Seq(
      StructField("id", LongType, nullable = false),
      StructField("x0", DoubleType, nullable = true),
      StructField("x1", DoubleType, nullable = true)))
    val df = spark.createDataFrame(spark.sparkContext.parallelize(rows), schema)
    val e  = intercept[IllegalArgumentException](Pts.fromDF(df))
    assert(e.getMessage.contains(fragment), e.getMessage)
  }

  test("fromDF rejects NaN and infinite coordinates") {
    rejects(Seq(Row(0L, 1.0, 2.0), Row(1L, Double.NaN, 2.0)), "id 1: coordinate x0 = NaN is not finite")
    rejects(Seq(Row(0L, 1.0, Double.PositiveInfinity)), "id 0: coordinate x1 = Infinity is not finite")
    rejects(Seq(Row(0L, Double.NegativeInfinity, 1.0)), "id 0: coordinate x0 = -Infinity is not finite")
  }

  test("fromDF rejects null coordinates") {
    rejects(Seq(Row(0L, 1.0, 2.0), Row(5L, 3.0, null)), "id 5: coordinate x1 is null")
  }

  test("fromDF rejects a frame with no points") {
    val df = spark.createDataFrame(spark.sparkContext.emptyRDD[Row], Pts.schema(2))
    val e  = intercept[IllegalArgumentException](Pts.fromDF(df))
    assert(e.getMessage.contains("no points"), e.getMessage)
  }

  test("fromDF rejects duplicate ids") {
    rejects(Seq(Row(3L, 1.0, 2.0), Row(1L, 0.0, 0.0), Row(3L, 5.0, 6.0)), "duplicate point id 3")
  }

  test("mismatched lengths rejected") {
    intercept[IllegalArgumentException](new Pts(2, 2, new Array[Double](3), new Array[Long](2)))
    intercept[IllegalArgumentException](new Pts(2, 2, new Array[Double](4), new Array[Long](3)))
  }

  test("jitter is deterministic, in (0,1), and injective over a large range") {
    val vals = (0 until 100000).map(Jitter.frac)
    assert(vals.forall(v => v > 0 && v < 1))
    assert(vals.distinct.length === vals.length)
    assert(Jitter.frac(42) === Jitter.frac(42))
  }
}
