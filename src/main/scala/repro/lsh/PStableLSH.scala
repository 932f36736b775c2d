package repro.lsh

import repro.core.Pts
import repro.grid.Grid
import scala.util.Random

/** p-stable locality-sensitive hashing (Datar et al. 2004).
  *
  * `m` compound hashes, each the concatenation of `l` functions
  * `h_{a,b}(p) = floor((a . p + b) / w)` with Gaussian `a` and uniform offset
  * `b in [0, w)`. Points sharing a compound key in a table land in the same
  * bucket — the partitioning LSH-DDP clusters within.
  */
final class PStableLSH(val d: Int, val m: Int, val l: Int, val w: Double, seed: Long)
    extends Serializable {
  require(d > 0 && m > 0 && l > 0 && w > 0, "invalid LSH parameters")

  private val a: Array[Array[Array[Double]]] = {
    val rnd = new Random(seed)
    Array.fill(m, l)(Array.fill(d)(rnd.nextGaussian()))
  }
  private val b: Array[Array[Double]] = {
    val rnd = new Random(seed + 1)
    Array.fill(m, l)(rnd.nextDouble() * w)
  }

  /** The projection of `pts` for table `table`: row `i` holds
    * `a_k . p_i + b_k` for `k = 0 until l`. A bucket of the table is a cell
    * of side `w` of this projection.
    */
  def project(table: Int, pts: Pts): Pts = {
    val out = Array.tabulate(pts.n * l) { r =>
      val ak  = a(table)(r % l)
      var dot = 0.0
      var j   = 0
      while (j < d) { dot += ak(j) * pts.coord(r / l, j); j += 1 }
      dot + b(table)(r % l)
    }
    new Pts(pts.n, l, out, pts.ids)
  }

  /** Compound key of point `p` in table `table`: its projection's grid cell. */
  def key(table: Int, p: Array[Double]): Seq[Int] =
    new Grid(project(table, Pts.fromArrays(d, Seq(p))), w).key(0).toSeq

  /** Modelled footprint of the hash parameters. */
  def paramBytes: Long = m.toLong * l * (8L * d + 8L)
}
