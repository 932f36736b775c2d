package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.util.Random

/** Spark generators for the paper's point workloads (DataFrames with schema
  * `(id: long, x0..x{d-1}: double)`). All Gaussian-mixture stand-ins; centers
  * are placed deterministically on jittered grids so clusters are separable
  * but adjacent (the regime where DPC's advantages show). Substitutions from
  * the paper's datasets are documented in DESIGN.md §4.
  */
object PointGen {

  /** Partitions of the id range a mixture draws from: `rand(seed)` is seeded
    * per partition, so a fixed count gives the same points under any master.
    */
  final val Slices = 4

  /** Gaussian mixture + uniform background noise, clipped to [0, domain]^d.
    *
    * @param centers   component centers (k x d)
    * @param sigmas    per-component standard deviation
    * @param noiseRate fraction of points drawn uniformly over the domain
    */
  def mixture(
      spark: SparkSession,
      n: Long,
      d: Int,
      centers: Array[Array[Double]],
      sigmas: Array[Double],
      noiseRate: Double,
      domain: Double,
      seed: Long
  ): DataFrame = {
    require(centers.nonEmpty && centers.forall(_.length == d), "bad centers")
    require(sigmas.length == centers.length, "sigmas/centers mismatch")
    val k = centers.length
    val base = spark
      .range(0, n, 1, Slices)
      .withColumn("comp", (rand(seed + 1) * k).cast("int"))
      .withColumn("noise", rand(seed + 2) < noiseRate)
    val sigmaArr = array(sigmas.map(lit(_)).toIndexedSeq: _*)
    val withCoords = (0 until d).foldLeft(base) { (df, j) =>
      val centerArr = array(centers.map(c => lit(c(j))).toIndexedSeq: _*)
      val gauss = element_at(centerArr, col("comp") + 1) +
        randn(seed + 100 + j) * element_at(sigmaArr, col("comp") + 1)
      val value = when(col("noise"), rand(seed + 200 + j) * domain).otherwise(gauss)
      df.withColumn(s"x$j", least(lit(domain), greatest(lit(0.0), value)))
    }
    withCoords.select((col("id") +: (0 until d).map(j => col(s"x$j"))).toIndexedSeq: _*)
  }

  /** k centers on a jittered grid filling [margin, domain-margin]^d: the first
    * k cells of a g^d lattice (g = ceil(k^(1/d))), center-jittered by up to
    * `jitterFrac` of the cell size. Deterministic in `seed`.
    */
  def gridCenters(k: Int, d: Int, domain: Double, seed: Long, jitterFrac: Double = 0.15): Array[Array[Double]] = {
    val g    = math.ceil(math.pow(k.toDouble, 1.0 / d)).toInt
    val cell = domain / g
    val rnd  = new Random(seed)
    val cells = (0 until math.pow(g.toDouble, d.toDouble).toInt).map { idx =>
      var rem = idx
      Array.tabulate(d) { _ =>
        val c = rem % g
        rem /= g
        c
      }
    }
    rnd.shuffle(cells).take(k).map { cellIdx =>
      cellIdx.map(c => (c + 0.5) * cell + (rnd.nextDouble() * 2 - 1) * jitterFrac * cell)
    }.toArray
  }
}
