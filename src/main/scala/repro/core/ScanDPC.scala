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
    try {
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
      new DPCResult(rho, depId, delta, PhaseTimes.between(t0, t1, System.nanoTime()), memBytes = 0L)
    } finally bcPts.destroy()
  }
}
