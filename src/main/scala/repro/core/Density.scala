package repro.core

import org.apache.spark.sql.SparkSession

/** The per-point density phase of Definition 1, shared by every algorithm
  * that counts each point's neighbours on its own (§3; Scan, R-tree + Scan,
  * CFSFDP-A, LSH-DDP and Ex-DPC).
  *
  * A caller supplies its groups and a kernel factory. The factory runs once
  * per task and returns a count: the number of *other* points strictly within
  * `d_cut` of point `i`, exact or, for LSH-DDP, approximate. It should read
  * only broadcasts, never capture the point set or an index, so that the task
  * stays small. The helper adds the (0,1) tie-break [[Jitter]] and places the
  * densities by point index.
  */
object Density {

  /** `rho` of `0 until n`: each group of `groups` (which together hold every
    * index once) runs in its own task, as [[Par.mapGroups]] does, and point
    * `i` gets `count(i) + Jitter.frac(i)`, with `count` made by `kernel`.
    */
  def rho(spark: SparkSession, n: Int, groups: Array[Array[Int]])(kernel: () => Int => Int): Array[Double] =
    Par.scatter(n, groups, Par.mapGroups(spark, groups) { idxs =>
      val count = kernel()
      val out   = new Array[Double](idxs.length)
      var k = 0
      while (k < idxs.length) {
        val i = idxs(k)
        out(k) = count(i) + Jitter.frac(i)
        k += 1
      }
      out
    })
}
