package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** Flat, cache-friendly point set: `n` points in `R^d`, row-major coordinates.
  *
  * This is the in-memory representation every DPC algorithm operates on. Points
  * are addressed by their index `0 until n`; the original DataFrame ids are kept
  * in [[ids]] so results can be joined back. The class is `Serializable` so it
  * can be shipped once via a Spark broadcast (in `local[*]` the broadcast value
  * is shared by reference across task threads — true shared memory, matching
  * the paper's multicore model).
  */
final class Pts(val n: Int, val d: Int, val data: Array[Double], val ids: Array[Long])
    extends Serializable {
  require(data.length == n * d, s"data length ${data.length} != n*d = ${n * d}")
  require(ids.length == n, s"ids length ${ids.length} != n = $n")

  /** j-th coordinate of point i. */
  @inline def coord(i: Int, j: Int): Double = data(i * d + j)

  /** Copy of point i's coordinates. */
  def point(i: Int): Array[Double] = {
    val a = new Array[Double](d)
    System.arraycopy(data, i * d, a, 0, d)
    a
  }

  /** Squared Euclidean distance between points i and j. */
  @inline def dist2(i: Int, j: Int): Double = {
    var s  = 0.0
    var k  = 0
    val oi = i * d
    val oj = j * d
    while (k < d) { val t = data(oi + k) - data(oj + k); s += t * t; k += 1 }
    s
  }

  /** Squared Euclidean distance between point i and an explicit coordinate vector. */
  @inline def dist2To(i: Int, q: Array[Double]): Double = {
    var s  = 0.0
    var k  = 0
    val oi = i * d
    while (k < d) { val t = data(oi + k) - q(k); s += t * t; k += 1 }
    s
  }

  /** Euclidean distance between points i and j. */
  @inline def dist(i: Int, j: Int): Double = math.sqrt(dist2(i, j))

  /** Bytes held by the raw coordinate + id arrays. */
  def dataBytes: Long = 8L * data.length + 8L * ids.length
}

object Pts {

  /** Schema used by all point DataFrames: `id: long, x0..x{d-1}: double`. */
  def schema(d: Int): StructType =
    StructType(
      StructField("id", LongType, nullable = false) +:
        (0 until d).map(j => StructField(s"x$j", DoubleType, nullable = false))
    )

  /** Collect a point DataFrame `(id, x0..x{d-1})` into a [[Pts]], ordered by id.
    *
    * Rejects, with an `IllegalArgumentException`, a frame with no rows, a null
    * id or coordinate, a NaN or infinite coordinate, and a duplicate id.
    */
  def fromDF(df: DataFrame): Pts = {
    val xCols = df.columns.filter(_.matches("x\\d+")).sortBy(_.drop(1).toInt)
    val d     = xCols.length
    require(d > 0, s"no coordinate columns x0.. in ${df.columns.mkString(",")}")
    val rows = df.select("id", xCols.toIndexedSeq: _*).orderBy("id").collect()
    val n    = rows.length
    require(n > 0, "point DataFrame has no points")
    val data = new Array[Double](n * d)
    val ids  = new Array[Long](n)
    var i = 0
    while (i < n) {
      val r = rows(i)
      require(!r.isNullAt(0), "point with a null id")
      ids(i) = r.getLong(0)
      require(i == 0 || ids(i) != ids(i - 1), s"duplicate point id ${ids(i)}")
      var j = 0
      while (j < d) {
        require(!r.isNullAt(j + 1), s"point id ${ids(i)}: coordinate x$j is null")
        val x = r.getDouble(j + 1)
        require(!x.isNaN && !x.isInfinite, s"point id ${ids(i)}: coordinate x$j = $x is not finite")
        data(i * d + j) = x
        j += 1
      }
      i += 1
    }
    new Pts(n, d, data, ids)
  }

  /** Build a [[Pts]] directly from coordinate rows (ids become 0..n-1). */
  def fromArrays(d: Int, rows: Seq[Array[Double]]): Pts = {
    val n    = rows.length
    val data = new Array[Double](n * d)
    var i = 0
    rows.foreach { r =>
      require(r.length == d, s"row has ${r.length} coords, expected $d")
      System.arraycopy(r, 0, data, i * d, d)
      i += 1
    }
    new Pts(n, d, data, Array.tabulate(n)(_.toLong))
  }

  /** Render as a DataFrame `(id, x0..x{d-1})` — the boundary format of this repo. */
  def toDF(spark: SparkSession, pts: Pts): DataFrame = {
    val rows = (0 until pts.n).map { i =>
      Row.fromSeq(pts.ids(i) +: (0 until pts.d).map(j => pts.coord(i, j)))
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toIndexedSeq), schema(pts.d))
  }
}
