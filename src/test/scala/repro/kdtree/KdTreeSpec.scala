package repro.kdtree

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.Pts
import scala.util.Random

/** kd-tree vs brute force across dimensions, sizes, and radii. */
class KdTreeSpec extends AnyFunSuite {

  private val sizes = Seq(1, 2, 17, 200, 800)
  private val dims  = Seq(1, 2, 3, 5)

  for (d <- dims; n <- sizes) {
    val pts  = TestUtil.uniformPts(n, d, domain = 100.0, seed = 100L * d + n)
    val tree = new KdTree(pts).buildAll()
    val rnd  = new Random(7L * d + n)
    val queries = Seq.fill(5)(Array.fill(d)(rnd.nextDouble() * 100.0))

    test(s"rangeCount matches brute force (d=$d, n=$n)") {
      for (q <- queries; r <- Seq(1.0, 10.0, 40.0, 200.0)) {
        assert(tree.rangeCount(q, r) === TestUtil.bruteRangeCount(pts, q, r))
      }
    }

    test(s"rangeSearch is an inclusive superset with no false positives (d=$d, n=$n)") {
      for (q <- queries; r <- Seq(5.0, 25.0)) {
        val got = tree.rangeSearch(q, r).toSet
        val exp = (0 until n).filter(i => pts.dist2To(i, q) <= r * r).toSet
        assert(got === exp)
      }
    }

    test(s"nearest matches brute force (d=$d, n=$n)") {
      for (q <- queries) {
        val (gid, gd) = tree.nearest(q)
        val (bid, bd) = TestUtil.bruteNearest(pts, 0 until n, q)
        assert(math.abs(gd - bd) < 1e-9, s"dist mismatch: got ($gid,$gd) want ($bid,$bd)")
      }
    }

    test(s"nearest honours the initial bound (d=$d, n=$n)") {
      for (q <- queries) {
        val (_, bd) = TestUtil.bruteNearest(pts, 0 until n, q)
        val (id2, _) = tree.nearest(q, bound = bd * 0.5)
        // with a bound below the true NN distance nothing is returned
        if (bd > 0) assert(id2 === -1)
        val (id3, d3) = tree.nearest(q, bound = bd * 2 + 1e-6)
        assert(id3 >= 0 && math.abs(d3 - bd) < 1e-9)
      }
    }
  }

  for (d <- Seq(2, 3); n <- Seq(50, 400)) {
    test(s"incrementally built tree answers like brute force (d=$d, n=$n)") {
      val pts  = TestUtil.uniformPts(n, d, 100.0, seed = 900L + 10 * d + n)
      val tree = new KdTree(pts)
      val rnd  = new Random(1234 + n)
      val order = rnd.shuffle((0 until n).toVector)
      val inserted = scala.collection.mutable.ArrayBuffer.empty[Int]
      order.zipWithIndex.foreach { case (i, step) =>
        tree.insert(i)
        inserted += i
        if (step % 37 == 0) {
          val q = Array.fill(d)(rnd.nextDouble() * 100.0)
          val (gid, gd) = tree.nearest(q)
          val (_, bd)   = TestUtil.bruteNearest(pts, inserted.toSeq, q)
          assert(gid >= 0 && math.abs(gd - bd) < 1e-9)
          val r = 5.0 + rnd.nextDouble() * 20
          val sub = Pts.fromArrays(d, inserted.toSeq.map(pts.point))
          assert(tree.rangeCount(q, r) === TestUtil.bruteRangeCount(sub, q, r))
        }
      }
      assert(tree.size === n)
    }
  }

  test("build on subset only indexes the subset") {
    val pts  = TestUtil.uniformPts(100, 2, 50.0, seed = 5)
    val ids  = (0 until 100 by 3).toArray
    val tree = new KdTree(pts).buildFrom(ids)
    assert(tree.size === ids.length)
    val q = Array(25.0, 25.0)
    val (gid, gd) = tree.nearest(q)
    val (_, bd)   = TestUtil.bruteNearest(pts, ids.toSeq, q)
    assert(gid >= 0 && math.abs(gd - bd) < 1e-9)
  }

  test("empty tree: safe defaults") {
    val pts  = TestUtil.uniformPts(10, 2, 10.0, seed = 6)
    val tree = new KdTree(pts)
    assert(tree.size === 0)
    assert(tree.rangeCount(Array(1.0, 1.0), 5.0) === 0)
    assert(tree.rangeSearch(Array(1.0, 1.0), 5.0).isEmpty)
    assert(tree.nearest(Array(1.0, 1.0))._1 === -1)
  }

  test("duplicate coordinates are all indexed and counted") {
    val rows = Seq.fill(20)(Array(3.0, 4.0)) ++ Seq(Array(50.0, 50.0))
    val pts  = Pts.fromArrays(2, rows)
    val tree = new KdTree(pts).buildAll()
    assert(tree.rangeCount(Array(3.0, 4.0), 0.5) === 20)
    assert(tree.rangeSearch(Array(3.0, 4.0), 0.0).length === 20)
  }

  /** Inserts `order` one by one, then checks every search against brute force
    * on `queries`: `nearest`'s distance bit for bit, range results exactly.
    */
  private def checkDeepTree(pts: Pts, order: Seq[Int], queries: Seq[Array[Double]], radii: Seq[Double]): Unit = {
    val tree = new KdTree(pts)
    order.foreach(tree.insert)
    assert(tree.size === order.length)
    for (q <- queries) {
      val (gid, gd) = tree.nearest(q)
      val (_, bd)   = TestUtil.bruteNearest(pts, order, q)
      assert(java.lang.Double.compare(gd, bd) == 0, s"nearest: got ($gid, $gd), want distance $bd")
      assert(java.lang.Double.compare(math.sqrt(pts.dist2To(gid, q)), bd) == 0)
      for (r <- radii) {
        assert(tree.rangeCount(q, r) === TestUtil.bruteRangeCount(pts, q, r))
        val exp = order.filter(i => pts.dist2To(i, q) <= r * r)
        assert(tree.rangeSearch(q, r).sorted.toSeq === exp.sorted)
      }
    }
  }

  test("deep tree: 50k identical points inserted one by one") {
    val n   = 50000
    val pts = Pts.fromArrays(2, Seq.fill(n)(Array(3.0, 4.0)))
    val queries = Seq(Array(3.0, 4.0), Array(3.5, 4.0), Array(-100.0, 250.0))
    checkDeepTree(pts, 0 until n, queries, radii = Seq(0.0, 0.5, 1.0, 1e6))
  }

  test("deep tree: 20k points inserted in increasing x form one spine") {
    val n   = 20000
    val pts = Pts.fromArrays(2, Seq.tabulate(n)(i => Array(i * 0.5, i * 0.25)))
    val rnd = new Random(21)
    val queries = Seq(Array(-5.0, -5.0), Array(1e5, 1e5)) ++
      Seq.fill(8)(Array(rnd.nextDouble() * n * 0.5, rnd.nextDouble() * n * 0.25))
    checkDeepTree(pts, 0 until n, queries, radii = Seq(0.3, 40.0, 1e6))
  }

  test("deep tree: a comb whose far children outgrow the initial search stack") {
    // 1-d: spine nodes 0, 2, 4, ... each get the left leaf 2k - 1, so a search
    // from the far right leaves one far child pending per level.
    val half  = 10000
    val pts   = Pts.fromArrays(1, (0 until half).flatMap(k => Seq(Array(2.0 * k), Array(2.0 * k - 1))))
    val queries = Seq(Array(1e9), Array(-1e9), Array(7777.7))
    checkDeepTree(pts, 0 until 2 * half, queries, radii = Seq(1.5, 1e4, 1e10))
  }

  test("nearest breaks distance ties by visit order: the near child before the far one") {
    // Root (0, 10) splits on x; q = (0, 0) has diff 0, so its near side is the
    // right child. Both children are at distance 1; Ex-DPC's depId relies on
    // the right one (id 2) being returned.
    val pts  = Pts.fromArrays(2, Seq(Array(0.0, 10.0), Array(-1.0, 0.0), Array(1.0, 0.0)))
    val tree = new KdTree(pts)
    (0 until 3).foreach(tree.insert)
    assert(tree.nearest(Array(0.0, 0.0)) === ((2, 1.0)))
  }

  test("memBytes grows with size") {
    val pts = TestUtil.uniformPts(500, 2, 10.0, seed = 8)
    val t1  = new KdTree(pts).buildFrom((0 until 100).toArray)
    val t2  = new KdTree(pts).buildAll()
    assert(t2.memBytes > t1.memBytes)
  }

  test("memBytes models four ints and d doubles per node") {
    val pts = TestUtil.uniformPts(500, 3, 10.0, seed = 9)
    assert(new KdTree(pts).buildAll().memBytes === 500L * 40L)
    val inc = new KdTree(pts)
    (0 until 37).foreach(inc.insert)
    assert(inc.memBytes === 37L * 40L)
  }
}
