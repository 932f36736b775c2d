package repro.kdtree

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{Jitter, Pts}
import scala.util.Random

/** The static max-density kd-tree: its range searches against [[KdTree]] and
  * brute force, and its dependent-point search, once densities are attached,
  * against a tree built over the universe alone and brute force.
  */
class MaxRhoKdTreeSpec extends AnyFunSuite {

  /** Asserts that rangeSearch (inclusive) of the static tree, and rangeCount
    * (strict) of the static tree and of [[KdTree]], equal brute force for every
    * query and radius.
    */
  private def checkRanges(pts: Pts, queries: Seq[Array[Double]], radii: Seq[Double]): Unit = {
    val st = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
    val kt = new KdTree(pts).buildAll()
    for (q <- queries; r <- radii) {
      val within = (0 until pts.n).filter(i => pts.dist2To(i, q) <= r * r)
      val got    = st.rangeSearch(q, r)
      assert(got.length === within.length, s"r=$r: ${got.length} ids, expected ${within.length}")
      assert(got.sorted.toSeq === within, s"r=$r")
      val cnt = TestUtil.bruteRangeCount(pts, q, r)
      assert(st.rangeCount(q, r) === cnt, s"r=$r")
      assert(kt.rangeCount(q, r) === cnt, s"r=$r")
    }
  }

  for (d <- Seq(1, 2, 3, 5); n <- Seq(1, 17, 200, 2000)) {
    test(s"rangeSearch and rangeCount equal KdTree's and brute force (d=$d, n=$n)") {
      val pts = TestUtil.uniformPts(n, d, 100.0, seed = 300L * d + n)
      val rnd = new Random(301L * d + n)
      val queries = Seq.fill(6)(Array.fill(d)(rnd.nextDouble() * 100.0)) :+ pts.point(0)
      checkRanges(pts, queries, Seq(0.0, 1.0, 10.0, 40.0))
    }
  }

  test("points exactly at distance r: rangeSearch keeps them, rangeCount drops them") {
    // A 2-d integer lattice: (3, 4) and (5, 0) offsets lie exactly at r = 5.
    val pts = Pts.fromArrays(2, for (x <- 0 until 40; y <- 0 until 40) yield Array(x.toDouble, y.toDouble))
    val queries = Seq(Array(20.0, 20.0), Array(0.0, 0.0), Array(7.0, 33.0))
    checkRanges(pts, queries, Seq(1.0, 5.0, 10.0, 13.0))
    val st = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
    assert(st.rangeSearch(Array(20.0, 20.0), 5.0).length - st.rangeCount(Array(20.0, 20.0), 5.0) === 12)
    // 3-d lattice: (2, 2, 1) lies exactly at r = 3.
    val pts3 = Pts.fromArrays(3, for (x <- 0 until 12; y <- 0 until 12; z <- 0 until 12)
      yield Array(x.toDouble, y.toDouble, z.toDouble))
    checkRanges(pts3, Seq(Array(6.0, 6.0, 6.0), Array(0.0, 11.0, 5.0)), Seq(1.0, 3.0, 6.0))
  }

  test("a ball that swallows whole leaves and subtrees") {
    val pts = TestUtil.clusteredPts(3000, 2, k = 3, sigma = 20.0, domain = 1000.0, seed = 302)
    val queries = Seq(Array(500.0, 500.0), pts.point(10), pts.point(2000))
    checkRanges(pts, queries, Seq(60.0, 300.0, 2000.0))
    val st = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
    assert(st.rangeSearch(Array(500.0, 500.0), 2000.0).sorted.toSeq === (0 until pts.n))
    assert(st.rangeCount(Array(500.0, 500.0), 2000.0) === pts.n)
  }

  test("20k duplicates of one point among a few others") {
    val rnd = new Random(303)
    val pts = Pts.fromArrays(3, Seq.fill(20000)(Array(5.0, 5.0, 5.0)) ++
      Seq.fill(200)(Array.fill(3)(rnd.nextDouble() * 10.0)))
    checkRanges(pts, Seq(Array(5.0, 5.0, 5.0), Array(1.0, 2.0, 3.0), Array(5.0, 5.0, 6.0)), Seq(0.0, 1.0, 2.5))
  }

  test("8-d points") {
    val pts = TestUtil.uniformPts(3000, 8, 100.0, seed = 304)
    val rnd = new Random(305)
    checkRanges(pts, Seq.fill(5)(Array.fill(8)(rnd.nextDouble() * 100.0)) :+ pts.point(7), Seq(20.0, 50.0, 90.0))
  }

  /** Brute-force nearest strictly denser point of `q` among `universe`, the
    * smallest id on ties.
    */
  private def bruteDenser(pts: Pts, rho: Array[Double], universe: Seq[Int], q: Int): (Int, Double) = {
    var bestId = -1
    var bestD2 = Double.PositiveInfinity
    universe.sorted.foreach { j =>
      if (rho(j) > rho(q)) {
        val d2 = pts.dist2(q, j)
        if (d2 < bestD2) { bestD2 = d2; bestId = j }
      }
    }
    (bestId, if (bestId < 0) Double.PositiveInfinity else math.sqrt(bestD2))
  }

  /** Asserts that the tree over all points, with densities attached for
    * `universe`, answers every query like a tree built over `universe` alone
    * and like brute force, bit for bit.
    */
  private def checkDenser(pts: Pts, rho: Array[Double], universe: Array[Int], queries: Seq[Int]): Unit = {
    val whole = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
    val dw    = whole.densities(rho, universe)
    val fresh = MaxRhoKdTree.build(pts, universe)
    val df    = fresh.densities(rho, universe)
    queries.foreach { q =>
      val exp = bruteDenser(pts, rho, universe.toSeq, q)
      val gw  = whole.denserNearest(pts.point(q), rho(q), dw)
      val gf  = fresh.denserNearest(pts.point(q), rho(q), df)
      assert(gw._1 === exp._1 && java.lang.Double.compare(gw._2, exp._2) == 0, s"query $q: $gw, expected $exp")
      assert(gf._1 === exp._1 && java.lang.Double.compare(gf._2, exp._2) == 0, s"query $q: $gf, expected $exp")
    }
  }

  for (d <- Seq(2, 3, 8)) {
    test(s"after attaching densities, denserNearest equals a fresh build and brute force (d=$d)") {
      val pts = TestUtil.clusteredPts(1500, d, k = 3, sigma = 60.0, domain = 1000.0, seed = 310L + d)
      val rho = TestUtil.bruteRho(pts, 80.0)
      checkDenser(pts, rho, Array.range(0, pts.n), 0 until pts.n by 3)
    }
  }

  test("a restricted universe whose outside densities are NaN") {
    val pts      = TestUtil.clusteredPts(2000, 3, k = 4, sigma = 40.0, domain = 1000.0, seed = 320)
    val full     = TestUtil.bruteRho(pts, 60.0)
    val universe = (0 until pts.n).filter(i => i % 4 == 0 || i % 11 == 0).toArray
    val rho      = Array.fill(pts.n)(Double.NaN)
    universe.foreach(i => rho(i) = full(i))
    checkDenser(pts, rho, universe, universe.toSeq)
  }

  test("outside points that are denser than every universe point are never returned") {
    val pts      = TestUtil.uniformPts(800, 2, 100.0, seed = 321)
    val rho      = Array.tabulate(pts.n)(i => (if (i % 2 == 0) 1000.0 else 0.0) + Jitter.frac(i))
    val universe = (1 until pts.n by 2).toArray
    checkDenser(pts, rho, universe, universe.toSeq)
  }

  test("duplicates: the smallest denser id at distance 0 wins") {
    val rnd = new Random(322)
    val pts = Pts.fromArrays(2, Seq.fill(20000)(Array(rnd.nextInt(10) * 5.0, rnd.nextInt(10) * 5.0)))
    val rho = Array.tabulate(pts.n)(i => Jitter.frac(i))
    checkDenser(pts, rho, Array.range(0, pts.n), 0 until pts.n by 97)
  }

  test("an empty tree and an empty universe find nothing") {
    val pts   = TestUtil.uniformPts(30, 2, 10.0, seed = 323)
    val rho   = Array.tabulate(pts.n)(i => Jitter.frac(i))
    val empty = MaxRhoKdTree.build(pts, Array.empty[Int])
    assert(empty.rangeSearch(pts.point(0), 100.0).isEmpty && empty.rangeCount(pts.point(0), 100.0) === 0)
    assert(empty.denserNearest(pts.point(0), 0.0, empty.densities(rho, Array.empty)) === ((-1, Double.PositiveInfinity)))
    val whole = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
    assert(whole.denserNearest(pts.point(0), -1.0, whole.densities(rho, Array.empty)) === ((-1, Double.PositiveInfinity)))
  }
}
