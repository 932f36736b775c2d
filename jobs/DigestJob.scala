package repro.jobs

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.cfsfdp.CFSFDPA
import repro.core._
import repro.data.{DatasetSpec, Datasets}
import repro.lsh.LSHDDP

/** `sbt "runMain repro.jobs.DigestJob"` (or `spark-submit --class
  * repro.jobs.DigestJob <jar>`): prints one line per algorithm and input with
  * a SHA-256 of the bits of its `rho`, `depId` and `delta` and its modelled
  * `memBytes`, for all seven algorithms on the seed-0 inputs of the
  * benchmark's two workloads (see perfbench/README.md): the paper's three
  * algorithms on the full input, the four baselines on its first
  * `baselineN` ids.
  *
  * Two checkouts give the same outputs exactly when their lines are equal,
  * so `diff` of two runs compares a change with its parent. The inputs
  * themselves depend on the core count: `PointGen` draws from `spark.range`,
  * whose partition count is `defaultParallelism`, with `rand(seed)` seeded
  * per partition. So the job first prints a header line with the master and
  * `defaultParallelism`, and only runs with equal headers are comparable.
  */
object DigestJob {

  /** A benchmark workload at seed 0: `spec.generate` at `n` points. */
  private final case class Input(name: String, spec: DatasetSpec, n: Int, eps: Double, baselineN: Int)

  private val inputs = Seq(
    Input("airline-3d-75k", Datasets.airline, n = 75000, eps = 0.8, baselineN = 10000),
    Input("syn-2d-20k-all", Datasets.syn(0.03), n = 20000, eps = 1.0, baselineN = 20000)
  )

  private val paper     = Seq[DPCAlgorithm](ExDPC, ApproxDPC, SApproxDPC)
  private val baselines = Seq[DPCAlgorithm](ScanDPC, RTreeScanDPC, LSHDDP, CFSFDPA)

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("digest")
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    println(s"master=${spark.sparkContext.master} defaultParallelism=${spark.sparkContext.defaultParallelism}")
    try inputs.foreach { in =>
      val df = in.spec.generate(spark, in.n)
      // rhoMin and deltaMin only cut labels, which this job does not compute.
      val params = DPCParams(dcut = in.spec.dcut, epsilon = in.eps)
      def run(algos: Seq[DPCAlgorithm], frame: DataFrame): Unit = {
        val pts = Pts.fromDF(frame)
        algos.foreach { a =>
          val r = a.run(spark, pts, params)
          println(f"${in.name}%-15s ${a.name}%-13s n=${pts.n} rho=${digest(r.rho)} depId=${digest(r.depId)} " +
            s"delta=${digest(r.delta)} memBytes=${r.memBytes}")
        }
      }
      run(paper, df)
      run(baselines, if (in.baselineN >= in.n) df else df.filter(col("id") < in.baselineN))
    } finally spark.stop()
  }

  /** First 16 hex digits of the SHA-256 of the values' bits, big-endian. */
  private def digest(xs: Array[Double]): String = {
    val b = ByteBuffer.allocate(8 * xs.length)
    xs.foreach(x => b.putLong(java.lang.Double.doubleToRawLongBits(x)))
    hex(b.array())
  }

  private def digest(xs: Array[Int]): String = {
    val b = ByteBuffer.allocate(4 * xs.length)
    xs.foreach(b.putInt)
    hex(b.array())
  }

  private def hex(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).take(8).map(x => f"${x & 0xff}%02x").mkString
}
