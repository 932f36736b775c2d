package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.{SparkSpec, TestUtil}
import scala.util.Random

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

  test("fromDF rejects coordinate columns that are not x0 .. x{d-1}, naming them") {
    for (xs <- Seq(Seq("x0", "x2"), Seq("x1", "x2"), Seq("x0", "x1", "x01"), Seq("x0", "x99999999999"))) {
      val schema = StructType(StructField("id", LongType, nullable = false) +: xs.map(StructField(_, DoubleType)))
      val rows   = Seq(Row.fromSeq(1L +: xs.map(_ => 0.5)), Row.fromSeq(2L +: xs.map(_ => 1.5)))
      rejectsFrame(spark.createDataFrame(spark.sparkContext.parallelize(rows, 1), schema), xs.mkString(","))
    }
  }

  /** Pts.fromDF on rows `(id, x0, x1)` with nullable coordinates must throw
    * an IllegalArgumentException whose message contains `fragment`.
    */
  private def rejects(rows: Seq[Row], fragment: String, slices: Int = spark.sparkContext.defaultParallelism): Unit = {
    val schema = StructType(Seq(
      StructField("id", LongType, nullable = false),
      StructField("x0", DoubleType, nullable = true),
      StructField("x1", DoubleType, nullable = true)))
    rejectsFrame(spark.createDataFrame(spark.sparkContext.parallelize(rows, slices), schema), fragment)
  }

  private def rejectsFrame(df: DataFrame, fragment: String): Unit = {
    val e = intercept[IllegalArgumentException](Pts.fromDF(df))
    assert(e.getMessage.contains(fragment), e.getMessage)
  }

  /** The row path `fromDF` had before it read flat blocks: select, sort with
    * `orderBy("id")`, collect the rows.
    */
  private def rowPath(df: DataFrame): Pts = {
    val xCols = df.columns.filter(_.matches("x\\d+")).sortBy(_.drop(1).toInt)
    val rows  = df.select("id", xCols.toIndexedSeq: _*).orderBy("id").collect()
    val d     = xCols.length
    new Pts(rows.length, d, rows.flatMap(r => (1 to d).map(r.getDouble)), rows.map(_.getLong(0)))
  }

  /** Same n, d, ids and coordinate bits. */
  private def assertSame(a: Pts, b: Pts): Unit = {
    assert(a.n === b.n && a.d === b.d)
    assert(a.ids.toSeq === b.ids.toSeq)
    assert(a.data.map(java.lang.Double.doubleToRawLongBits).toSeq === b.data.map(java.lang.Double.doubleToRawLongBits).toSeq)
  }

  /** A frame with exactly the given partitions. */
  private def framed(parts: Seq[Seq[Row]], schema: StructType): DataFrame = {
    val ps = parts.map(_.toVector).toVector
    val df = spark.createDataFrame(spark.sparkContext.parallelize(ps.indices, ps.length).flatMap(ps(_)), schema)
    assert(df.rdd.glom().map(_.length).collect().toSeq === ps.map(_.length))
    df
  }

  test("fromDF equals fromArrays and the row path bit for bit on a shuffled frame over 7 partitions, some empty") {
    val pts    = TestUtil.clusteredPts(3000, 3, k = 4, sigma = 20.0, domain = 1000.0, seed = 62)
    val rows   = new Random(63).shuffle((0 until pts.n).map(i => Row.fromSeq(pts.ids(i) +: pts.point(i).toSeq)))
    val chunks = rows.grouped(600).toVector
    val df     = framed(Seq(chunks(0), Nil, chunks(1), chunks(2), Nil, chunks(3), chunks(4)), Pts.schema(3))
    val back   = Pts.fromDF(df)
    assertSame(back, pts)
    assertSame(back, rowPath(df))
  }

  test("fromDF reads id and coordinates by name among extra and reordered columns") {
    val pts    = TestUtil.uniformPts(500, 2, 10.0, seed = 64)
    val schema = StructType(Seq(StructField("x1", DoubleType), StructField("label", StringType),
      StructField("id", LongType), StructField("x0", DoubleType)))
    val rows = new Random(65).shuffle((0 until pts.n).map(i => Row(pts.coord(i, 1), s"l$i", pts.ids(i), pts.coord(i, 0))))
    val df   = framed(rows.grouped(150).toSeq, schema)
    val back = Pts.fromDF(df)
    assertSame(back, pts)
    assertSame(back, rowPath(df))
  }

  test("fromDF orders negative, sparse and extreme ids as Long order does") {
    val rnd = new Random(66)
    val ids = (Seq(Long.MinValue, Long.MaxValue, Long.MinValue + 1, Long.MaxValue - 1, -1L, 0L, 1L, -256L, 256L,
      1L << 40, -(1L << 50)) ++ Seq.fill(400)(rnd.nextLong())).distinct
    val rows = rnd.shuffle(ids.map(id => Row(id, rnd.nextGaussian() * 1e6, rnd.nextDouble())))
    val df   = framed(rows.grouped(97).toSeq :+ Nil, Pts.schema(2))
    val back = Pts.fromDF(df)
    assert(back.ids.toSeq === ids.sorted)
    val byId = rows.map(r => r.getLong(0) -> Seq(r.getDouble(1), r.getDouble(2))).toMap
    assert(back.data.toSeq === ids.sorted.flatMap(byId))
    assertSame(back, rowPath(df))
  }

  test("fromDF on a cached 4-partition frame runs one job of one stage and writes no shuffle bytes") {
    val pts  = TestUtil.uniformPts(2000, 2, 100.0, seed = 67)
    val rows = (0 until pts.n).map(i => Row(pts.ids(i), pts.coord(i, 0), pts.coord(i, 1)))
    val df   = spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), Pts.schema(2)).cache()
    try {
      df.count()
      var back: Pts = null
      val work = TestUtil.sparkWork(spark) { back = Pts.fromDF(df) }
      assert(work === ((1, 1, 0L)), "(jobs, stages, shuffle bytes)")
      assertSame(back, pts)
    } finally df.unpersist()
  }

  test("fromDF requires a bigint id and double coordinates, naming the column and its type") {
    def frame(types: Seq[DataType], row: Row): DataFrame =
      spark.createDataFrame(spark.sparkContext.parallelize(Seq(row)),
        StructType(Seq("id", "x0", "x1").zip(types).map { case (c, t) => StructField(c, t) }))
    rejectsFrame(frame(Seq(IntegerType, DoubleType, DoubleType), Row(1, 1.0, 2.0)), "column id has type int, expected bigint")
    rejectsFrame(frame(Seq(LongType, DoubleType, FloatType), Row(1L, 1.0, 2.0f)), "column x1 has type float, expected double")
    rejectsFrame(frame(Seq(LongType, StringType, DoubleType), Row(1L, "a", 2.0)), "column x0 has type string, expected double")
  }

  test("fromDF rejects a null id before any other fault") {
    val schema = StructType(Seq(StructField("id", LongType, nullable = true), StructField("x0", DoubleType)))
    val rows   = Seq(Row(1L, Double.NaN), Row(2L, 1.0), Row(null, 1.0), Row(2L, 3.0))
    rejectsFrame(spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema), "point with a null id")
  }

  test("fromDF reports the fault of the smallest id first, as a scan in id order does") {
    for (slices <- Seq(1, 3)) {
      rejects(Seq(Row(9L, 1.0, null), Row(6L, 1.0, null), Row(4L, Double.NaN, 1.0)),
        "id 4: coordinate x0 = NaN is not finite", slices)
      rejects(Seq(Row(9L, null, 1.0), Row(4L, Double.NaN, 1.0), Row(2L, 1.0, null), Row(3L, null, null)),
        "id 2: coordinate x1 is null", slices)
      rejects(Seq(Row(8L, 1.0, 1.0), Row(5L, Double.NaN, null), Row(6L, null, 1.0)),
        "id 5: coordinate x0 = NaN is not finite", slices)
      rejects(Seq(Row(8L, 1.0, 1.0), Row(5L, null, Double.NaN), Row(6L, null, 1.0)),
        "id 5: coordinate x0 is null", slices)
      rejects(Seq(Row(7L, 1.0, 2.0), Row(8L, null, 1.0), Row(7L, 3.0, 4.0)), "duplicate point id 7", slices)
    }
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
