package repro.core

import org.apache.spark.sql.SparkSession

/** The straightforward O(n^2) algorithm of §2.1: densities by full linear scan,
  * dependent points by a scan of the denser points ([[ScanDependents]]). Both
  * phases are embarrassingly parallel per point, run as Spark tasks, and
  * compute their distances with the [[Columns]] kernel.
  */
object ScanDPC extends DPCAlgorithm {
  override val name = "Scan"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = Run(spark) { run =>
    val n     = pts.n
    val dcut2 = params.dcut * params.dcut

    val rho = run.rho(Density.rho(spark, n, Par.indexed(spark, n)) { () =>
      // Rows in id order; point i is left out by its row.
      val c   = new Columns(pts, Array.range(0, n))
      val q   = new Array[Double](c.d)
      val acc = new Array[Double](Columns.Chunk)
      i => {
        c.row(i, q)
        c.count(q, 0, i, dcut2, acc) + c.count(q, i + 1, n, dcut2, acc)
      }
    })

    val (depId, delta) = run.delta(ScanDependents.compute(spark, pts, rho))
    new DPCResult(rho, depId, delta, run.times, memBytes = 0L)
  }
}
