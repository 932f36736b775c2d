package repro.core

import org.apache.spark.sql.SparkSession

/** The straightforward O(n^2) algorithm of §2.1: densities by full linear scan,
  * dependent points by sorted scan with early termination. Both phases are
  * embarrassingly parallel per point and run as Spark tasks.
  */
object ScanDPC extends DPCAlgorithm {
  override val name = "Scan"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = {
    val n     = pts.n
    val dcut2 = params.dcut * params.dcut

    val t0    = System.nanoTime()
    val bcPts = spark.sparkContext.broadcast(pts)
    val rho = Density.rho(spark, n, Par.indexed(spark, n)) { () =>
      val p = bcPts.value
      i => {
        var cnt = 0
        var j = 0
        while (j < p.n) {
          if (j != i && p.dist2(i, j) < dcut2) cnt += 1
          j += 1
        }
        cnt
      }
    }
    val t1 = System.nanoTime()

    val (depId, delta) = ScanDependents.compute(spark, () => bcPts.value, rho)
    val t2 = System.nanoTime()
    bcPts.destroy()

    new DPCResult(rho, depId, delta,
      PhaseTimes((t1 - t0) / 1000000L, (t2 - t1) / 1000000L), memBytes = 0L)
  }
}
