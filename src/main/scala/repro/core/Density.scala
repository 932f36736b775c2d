package repro.core

import org.apache.spark.sql.SparkSession

/** The per-point density phase of Definition 1, shared by every algorithm
  * that counts each point's neighbours on its own (§3; Scan, R-tree + Scan,
  * CFSFDP-A, LSH-DDP and Ex-DPC).
  *
  * A caller supplies its groups and a kernel factory, as for [[Par.mapItems]].
  * The kernel returns a count: the number of *other* points strictly within
  * `d_cut` of point `i`, exact or, for LSH-DDP, approximate. The helper adds
  * the (0,1) tie-break [[Jitter]].
  */
object Density {

  /** `rho` of `0 until n`: point `i` gets `count(i) + Jitter.frac(i)`, with
    * `count` made by `kernel` once per task of [[Par.mapItems]].
    */
  def rho(spark: SparkSession, n: Int, groups: Array[Array[Int]])(kernel: () => Int => Int): Array[Double] =
    Par.mapItems(spark, n, groups) { () =>
      val count = kernel()
      i => count(i) + Jitter.frac(i)
    }
}
