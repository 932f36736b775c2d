package repro.core

import org.apache.spark.sql.SparkSession

/** The per-point density phase of Definition 1, shared by every algorithm
  * that counts each point's neighbours on its own (§3; Scan, R-tree + Scan,
  * CFSFDP-A, LSH-DDP and Ex-DPC).
  *
  * A caller supplies its groups and a kernel factory, which
  * [[Par.mapGroups]] calls once per group to make its per-item kernel. The
  * kernel returns a count: the number of *other* points strictly within
  * `d_cut` of point `i`, exact or, for LSH-DDP, approximate. The helper adds
  * the (0,1) tie-break [[Jitter]].
  */
object Density {

  /** `rho` of `0 until n`: each group's call writes `count(i) +
    * Jitter.frac(i)` at its points `i`, with `count` made by `kernel`.
    */
  def rho(spark: SparkSession, n: Int, groups: Array[Array[Int]])(kernel: () => Int => Int): Array[Double] = {
    val rho = new Array[Double](n)
    Par.mapGroups(spark, groups) { idxs =>
      val count = kernel()
      var k = 0
      while (k < idxs.length) { val i = idxs(k); rho(i) = count(i) + Jitter.frac(i); k += 1 }
    }
    rho
  }
}
