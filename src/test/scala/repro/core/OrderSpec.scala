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
}
