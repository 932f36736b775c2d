package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The primitive density order against the stable boxed sort it replaces. */
class OrderSpec extends AnyFunSuite {

  private def stable(keys: Array[Double]): Seq[Int] = Array.tabulate(keys.length)(identity).sortBy(i => -keys(i)).toSeq

  test("descending equals the stable sortBy(-key) on keys with many ties") {
    val rnd = new Random(90)
    for (n <- Seq(0, 1, 2, 255, 256, 257, 5000)) {
      val keys = Array.fill(n)(rnd.nextInt(20).toDouble - 5.0)
      assert(Order.descending(keys).toSeq === stable(keys), s"n=$n")
    }
  }

  test("descending equals sortBy on jittered densities") {
    val keys = Array.tabulate(20000)(i => (i * 7919 % 300).toDouble + Jitter.frac(i))
    assert(Order.descending(keys).toSeq === stable(keys))
  }

  test("descending orders signed zeros, infinities and NaN as Double.compare does") {
    val keys = Array(0.0, -0.0, Double.NaN, Double.PositiveInfinity, -1.5, Double.NegativeInfinity,
      Double.MinPositiveValue, -0.0, Double.NaN, 1e300, -1e-300, 0.0)
    assert(Order.descending(keys).toSeq === stable(keys))
  }

  test("ascending equals the stable sortBy(key) on signed, sparse, extreme and repeated Long keys") {
    val rnd = new Random(91)
    val edge = Array(Long.MaxValue, Long.MinValue, -1L, 0L, 1L, Long.MinValue + 1, Long.MaxValue - 1, -256L, 256L)
    val cases = Seq(
      Array.empty[Long],
      Array(7L),
      edge,
      edge ++ edge.reverse,
      Array.tabulate(5000)(i => (i * 7919L) % 5000 - 2500),            // dense, negative and positive
      Array.fill(5000)(rnd.nextLong()),                                 // sparse over all 64 bits
      Array.fill(5000)(rnd.nextInt(40).toLong * 1000000007L - 20000000000L), // many ties
      Array.tabulate(300)(i => if (i % 2 == 0) Long.MaxValue - i else Long.MinValue + i))
    cases.foreach { keys =>
      val stable = Array.tabulate(keys.length)(identity).sortBy(i => keys(i)).toSeq
      assert(Order.ascending(keys).toSeq === stable, s"n=${keys.length}")
    }
  }
}
