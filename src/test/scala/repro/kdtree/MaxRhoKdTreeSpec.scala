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

  /** Asserts that every query `(q, rhoQ)` finds, under `rho`, the smallest id
    * among the nearest points denser than `rhoQ`, as brute force over ids in
    * ascending order does, with the distance bit for bit; returns how many
    * queries had several such points.
    */
  private def checkTies(pts: Pts, rho: Array[Double], queries: Seq[(Array[Double], Double)]): Int = {
    val tree = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
    val dens = tree.densities(rho, Array.range(0, pts.n))
    queries.count { case (q, rhoQ) =>
      val d2  = Array.tabulate(pts.n)(j => if (rho(j) > rhoQ) pts.dist2To(j, q) else Double.PositiveInfinity)
      val min = d2.min
      val exp = if (min.isInfinity) (-1, Double.PositiveInfinity) else (d2.indexOf(min), math.sqrt(min))
      val got = tree.denserNearest(q, rhoQ, dens)
      assert(got._1 === exp._1 && java.lang.Double.compare(got._2, exp._2) == 0, s"query ${q.toSeq} above $rhoQ: $got, expected $exp")
      d2.count(_ == min) > 1 && !min.isInfinity
    }
  }

  // Quantized points put many points at one position and many pairs exactly
  // equidistant from a query on the grid. Each density threshold leaves the
  // denser points, as the paper's incremental tree holds after its inserts;
  // the densities tie too, so "denser" must be strict.
  for (d <- Seq(1, 2, 3, 5)) {
    test(s"denserNearest takes the smallest denser id among equidistant points (d=$d)") {
      val n    = 3000
      val pts  = TestUtil.quantizedPts(n, d, k = 3, sigma = 30.0, domain = 200.0, step = 10.0, seed = 70L + d)
      val rho  = Array.tabulate(n)(i => (i * 7 % 31).toDouble)
      val rnd  = new Random(71L + d)
      val grid = Seq.fill(40)(Array.fill(d)(10.0 * rnd.nextInt(21))) ++ Seq.fill(10)(pts.point(rnd.nextInt(n)))
      val ties = checkTies(pts, rho, for (q <- grid; t <- -1 until 31) yield (q, t.toDouble))
      assert(ties > 100, "the inputs must put several points at the nearest distance")
    }
  }

  test("denserNearest takes the smallest id, not the near child, on a split-plane tie") {
    // Ids 2k and 2k + 1 at k + 1 and -(k + 1): every pair ties around a query
    // at 0, across the split at 0, for every density threshold.
    val pts = Pts.fromArrays(1, (0 until 40).map(i => Array((i / 2 + 1.0) * (if (i % 2 == 0) 1 else -1))))
    val rho = Array.tabulate(pts.n)(i => (i / 2).toDouble)
    assert(checkTies(pts, rho, (-1 until 19).map(t => (Array(0.0), t.toDouble))) === 20)
    val tree = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
    assert(tree.denserNearest(Array(0.0), -1.0, tree.densities(rho, Array.range(0, pts.n))) === ((0, 1.0)))
  }

  test("20k identical points: each finds the smallest denser id at distance 0") {
    val n   = 20000
    val pts = Pts.fromArrays(2, Seq.fill(n)(Array(5.0, -7.0)))
    val rho = Array.tabulate(n)(i => Jitter.frac(i))
    val tree = MaxRhoKdTree.build(pts, Array.range(0, n))
    val dens = tree.densities(rho, Array.range(0, n))
    // Brute force for all n at once: by descending density, the smallest id so far.
    val order = repro.core.Order.descending(rho)
    var least = Int.MaxValue
    order.foreach { i =>
      val exp = if (least == Int.MaxValue) (-1, Double.PositiveInfinity) else (least, 0.0)
      assert(tree.denserNearest(pts.point(i), rho(i), dens) === exp, s"query $i")
      least = math.min(least, i)
    }
  }

  test("a 30x30 lattice with about 22 points per position") {
    val rnd = new Random(324)
    val pts = Pts.fromArrays(2, Seq.fill(20000)(Array(rnd.nextInt(30).toDouble, rnd.nextInt(30).toDouble)))
    val rho = Array.tabulate(pts.n)(i => rnd.nextInt(40) + Jitter.frac(i))
    assert(checkTies(pts, rho, (0 until pts.n by 53).map(i => (pts.point(i), rho(i)))) > 100)
  }

  /** Starts from no point (`densities(rho, empty)`) and raises `universe`'s
    * points to their densities in shuffled order. At checkpoints along the
    * way `denserNearest` equals brute force over the points raised so far,
    * bit for bit; at the end the densities are bit-equal to those that
    * `densities(rho, universe)` attaches.
    */
  private def checkRaise(pts: Pts, rho: Array[Double], universe: Array[Int], seed: Long): Unit = {
    val tree   = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
    val slotOf = new Array[Int](pts.n)
    tree.leafOrder.zipWithIndex.foreach { case (id, s) => slotOf(id) = s }
    val dens   = tree.densities(rho, Array.empty)
    val rnd    = new Random(seed)
    val order  = rnd.shuffle(universe.toVector)
    val raised = scala.collection.mutable.ArrayBuffer.empty[Int]
    order.zipWithIndex.foreach { case (i, step) =>
      tree.raise(dens, slotOf(i), rho(i))
      raised += i
      if (step % (order.length / 12 + 1) == 0 || step == order.length - 1) {
        for (q <- Seq.fill(12)(rnd.nextInt(pts.n))) {
          val exp = bruteDenser(pts, rho, raised.toSeq, q)
          val got = tree.denserNearest(pts.point(q), rho(q), dens)
          assert(got._1 === exp._1 && java.lang.Double.compare(got._2, exp._2) == 0,
            s"after ${step + 1} raises, query $q: $got, expected $exp")
        }
      }
    }
    val want = tree.densities(rho, universe)
    def bits(a: Array[Double]) = a.toSeq.map(java.lang.Double.doubleToRawLongBits)
    assert(bits(dens.rhos) === bits(want.rhos))
    assert(bits(dens.maxRho) === bits(want.maxRho))
  }

  test("raising a restricted universe point by point equals attaching its densities") {
    val pts      = TestUtil.clusteredPts(2000, 3, k = 4, sigma = 40.0, domain = 1000.0, seed = 330)
    val rho      = TestUtil.bruteRho(pts, 60.0)
    val universe = (0 until pts.n).filter(i => i % 3 != 0).toArray
    checkRaise(pts, rho, universe, seed = 331)
  }

  for (d <- Seq(1, 2, 3)) {
    test(s"raising quantized duplicates point by point equals attaching their densities (d=$d)") {
      val n   = 3000
      val pts = TestUtil.quantizedPts(n, d, k = 3, sigma = 30.0, domain = 200.0, step = 20.0, seed = 332L + d)
      assert(TestUtil.distinctPositions(pts) < n / 5, "the input must be duplicate-heavy")
      val rho = Array.tabulate(n)(i => (i * 7 % 31).toDouble)
      checkRaise(pts, rho, Array.range(0, n), seed = 335L + d)
    }
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
