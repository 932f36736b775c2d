package repro.core

import java.util.concurrent.atomic.AtomicLong
import repro.{SparkSpec, TestUtil}
import scala.util.Random

/** [[Density.rho]] with a brute-force kernel equals [[TestUtil.bruteRho]] bit
  * for bit, whatever the groups, and each task writes its own points'
  * densities in place.
  */
class DensitySpec extends SparkSpec {

  private def rho(pts: Pts, dcut: Double, groups: Array[Array[Int]]): Array[Double] = {
    val dcut2 = dcut * dcut
    Density.rho(spark, pts.n, groups)(() => i => (0 until pts.n).count(j => j != i && pts.dist2(i, j) < dcut2))
  }

  private def check(pts: Pts, dcut: Double, groups: Array[Array[Int]]): Unit =
    assert(rho(pts, dcut, groups).toSeq === TestUtil.bruteRho(pts, dcut).toSeq)

  private lazy val pts = TestUtil.quantizedPts(3000, 2, k = 3, sigma = 40.0, domain = 1000.0, step = 10.0, seed = 900)

  test("round-robin groups match brute force") {
    check(pts, 20.0, Par.indexed(spark, pts.n))
  }

  test("static ranges match brute force") {
    check(pts, 20.0, Par.ranges(pts.n, 3))
  }

  test("a single group runs on the driver with no Spark job and matches brute force") {
    val one = Array(Array.range(0, pts.n))
    assert(TestUtil.sparkWork(spark)(check(pts, 20.0, one)) === ((0, 0, 0L)))
    // A group out of index order still puts each count at its point.
    var out = Array.empty[Double]
    assert(TestUtil.sparkWork(spark) { out = Density.rho(spark, 5, Array(Array(3, 0, 4, 1, 2)))(() => i => i * i) } ===
      ((0, 0, 0L)), "(jobs, stages, shuffle bytes)")
    assert(out.toSeq === (0 until 5).map(i => i * i + Jitter.frac(i)))
  }

  test("the factory runs once per group and the kernel once per point, each density at its point's index") {
    val rnd    = new Random(73)
    val n      = 1013
    val counts = Array.fill(n)(rnd.nextInt(1 << 20))
    // Groups out of order, with empty groups among them.
    val mixed = Array(Array(4, 0), Array.empty[Int], Array(2), Array(5, 1, 3), Array.empty[Int]) :+ Array.range(6, n)
    for (groups <- Seq(
        Par.lpt(Array.fill(n)(rnd.nextDouble()), 6), Par.indexed(spark, n), Par.ranges(n, 7),
        Par.sliced(spark, rnd.shuffle((0 until n).toVector).toArray), mixed)) {
      assert(groups.flatten.sorted.toSeq === (0 until n))
      // The tasks update the driver's own counters, concurrently.
      val factories = new AtomicLong
      val items     = new AtomicLong
      val out = Density.rho(spark, n, groups) { () =>
        factories.incrementAndGet()
        i => { items.incrementAndGet(); counts(i) }
      }
      assert(out.toSeq === (0 until n).map(i => counts(i) + Jitter.frac(i)))
      assert((factories.get, items.get) === ((groups.length.toLong, n.toLong)))
    }
  }

  test("n = 0 gives no densities and n = 1 gives the jitter alone") {
    val empty = new Pts(0, 2, Array.empty, Array.empty)
    assert(rho(empty, 1.0, Par.indexed(spark, 0)).isEmpty)
    assert(rho(empty, 1.0, Par.lpt(Array.empty[Double], 4)).isEmpty)
    val one = Pts.fromArrays(2, Seq(Array(1.0, 2.0)))
    assert(rho(one, 1.0, Par.indexed(spark, 1)).toSeq === Seq(Jitter.frac(0)))
  }
}
