package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types._
import scala.collection.mutable

/** Flat, cache-friendly point set: `n` points in `R^d`, row-major coordinates.
  *
  * This is the in-memory representation every DPC algorithm operates on. Points
  * are addressed by their index `0 until n`; the original DataFrame ids are kept
  * in [[ids]] so results can be joined back. A kernel of [[Par.mapGroups]]
  * captures it, and every task of the fan-out reads the driver's own object by
  * reference — true shared memory, matching the paper's multicore model.
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
    * One Spark job over the frame's own plan ([[Par.runPartitions]]) packs
    * each partition into a [[Block]] of primitive arrays; the driver orders
    * the rows by id with a radix argsort. Other columns are ignored. Rejects,
    * with an `IllegalArgumentException`, a frame with no coordinate columns,
    * columns named `x` and digits that are not exactly `x0 .. x{d-1}`, an
    * `id` that is not `bigint` or a coordinate that is not `double`, no rows,
    * a null id or coordinate, a NaN or infinite coordinate, and a duplicate
    * id.
    */
  def fromDF(df: DataFrame): Pts = {
    val schema = df.schema
    val xNames = schema.fieldNames.filter(_.matches("x\\d+"))
    val d      = xNames.length
    require(d > 0, s"no coordinate columns x0.. in ${schema.fieldNames.mkString(",")}")
    // d names that hold each of x0 .. x{d-1} are exactly those columns, once each.
    val xCols = Array.tabulate(d)(j => s"x$j")
    require(xCols.forall(xNames.contains),
      s"coordinate columns ${xNames.mkString(",")} are not x0 .. x${d - 1}")
    def column(name: String, dt: DataType): Int = {
      val c = schema.fieldIndex(name)
      require(schema(c).dataType == dt,
        s"column $name has type ${schema(c).dataType.simpleString}, expected ${dt.simpleString}")
      c
    }
    val idCol  = column("id", LongType)
    val xIdx   = xCols.map(column(_, DoubleType))
    val blocks = Par.runPartitions(df.queryExecution.toRdd)(rows => Block.pack(rows, idCol, xIdx))

    require(!blocks.exists(_.nullId), "point with a null id")
    val n = blocks.iterator.map(_.ids.length.toLong).sum
    require(n > 0, "point DataFrame has no points")
    require(n * d <= Int.MaxValue, s"$n points in $d dimensions do not fit one array")
    val ids = new Array[Long](n.toInt)
    val xs  = new Array[Double](n.toInt * d)
    // The row holding the null coordinate of the smallest id, by its position
    // in `ids`: the first null the scan below meets.
    var nullAt, nullCol = -1
    var off = 0
    blocks.foreach { b =>
      val m = b.ids.length
      System.arraycopy(b.ids, 0, ids, off, m)
      System.arraycopy(b.xs, 0, xs, off * d, m * d)
      if (b.nullRow >= 0 && (nullAt < 0 || b.ids(b.nullRow) < ids(nullAt))) {
        nullAt = off + b.nullRow; nullCol = b.nullCol
      }
      off += m
    }

    val order = Order.ascending(ids)
    val sorted = new Array[Long](ids.length)
    val data   = new Array[Double](xs.length)
    var i = 0
    while (i < sorted.length) {
      val s  = order(i)
      val id = ids(s)
      sorted(i) = id
      require(i == 0 || id != sorted(i - 1), s"duplicate point id $id")
      var j = 0
      while (j < d) {
        require(s != nullAt || j != nullCol, s"point id $id: coordinate x$j is null")
        val x = xs(s * d + j)
        require(!x.isNaN && !x.isInfinite, s"point id $id: coordinate x$j = $x is not finite")
        data(i * d + j) = x
        j += 1
      }
      i += 1
    }
    new Pts(sorted.length, d, data, sorted)
  }

  /** The rows of one partition of a point frame, in partition order.
    *
    * @param ids     the non-null ids
    * @param xs      their coordinates, row-major; a null coordinate reads 0
    * @param nullId  whether a row had a null id (its row is left out)
    * @param nullRow the row, among `ids`, of the smallest id that has a null
    *                coordinate, or -1
    * @param nullCol that row's first null coordinate
    */
  private final class Block(
      val ids: Array[Long],
      val xs: Array[Double],
      val nullId: Boolean,
      val nullRow: Int,
      val nullCol: Int
  ) extends Serializable

  private object Block {
    def pack(rows: Iterator[InternalRow], idCol: Int, xIdx: Array[Int]): Block = {
      val d   = xIdx.length
      val ids = new mutable.ArrayBuilder.ofLong
      val xs  = new mutable.ArrayBuilder.ofDouble
      var nullId = false
      var nullRow, nullCol = -1
      var nullKey = 0L
      var m = 0
      while (rows.hasNext) {
        val r = rows.next()
        if (r.isNullAt(idCol)) nullId = true
        else {
          val id = r.getLong(idCol)
          ids += id
          var j = 0
          while (j < d) {
            if (!r.isNullAt(xIdx(j))) xs += r.getDouble(xIdx(j))
            else {
              xs += 0.0
              if (nullRow < 0 || (nullRow != m && id < nullKey)) { nullRow = m; nullCol = j; nullKey = id }
            }
            j += 1
          }
          m += 1
        }
      }
      new Block(ids.result(), xs.result(), nullId, nullRow, nullCol)
    }
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
