package repro.kdtree

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import repro.{SparkSpec, TestUtil}
import repro.core.{DPCParams, ExDPC, Order, Pts}
import repro.data.PointGen
import scala.util.Random

/** kd-tree vs brute force across dimensions, sizes, and radii, and the
  * paper's incremental Ex-DPC loop on it against [[ExDPC]].
  */
class KdTreeSpec extends SparkSpec {

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

    // KdTree has no inclusive search; these inputs cover the one the density
    // phases use, MaxRhoKdTree.rangeSearch, against brute force.
    test(s"rangeSearch is an inclusive superset with no false positives (d=$d, n=$n)") {
      val static = MaxRhoKdTree.build(pts, Array.range(0, n))
      for (q <- queries; r <- Seq(5.0, 25.0)) {
        val got = static.rangeSearch(q, r).toSet
        val exp = (0 until n).filter(i => pts.dist2To(i, q) <= r * r).toSet
        assert(got === exp)
      }
    }

    test(s"nearest matches brute force (d=$d, n=$n)") {
      for (q <- queries) assert(tree.nearest(q) === TestUtil.bruteNearest(pts, 0 until n, q))
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
          assert(tree.nearest(q) === TestUtil.bruteNearest(pts, inserted.toSeq.sorted, q))
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
    assert(tree.nearest(q) === TestUtil.bruteNearest(pts, ids.toSeq, q))
  }

  test("empty tree: safe defaults") {
    val pts  = TestUtil.uniformPts(10, 2, 10.0, seed = 6)
    val tree = new KdTree(pts)
    assert(tree.size === 0)
    assert(tree.rangeCount(Array(1.0, 1.0), 5.0) === 0)
    assert(tree.nearest(Array(1.0, 1.0))._1 === -1)
  }

  test("duplicate coordinates are all indexed and counted") {
    val rows = Seq.fill(20)(Array(3.0, 4.0)) ++ Seq(Array(50.0, 50.0))
    val pts  = Pts.fromArrays(2, rows)
    val tree = new KdTree(pts).buildAll()
    assert(tree.rangeCount(Array(3.0, 4.0), 0.5) === 20)
  }

  /** Inserts `order` one by one, then checks every search against brute force
    * on `queries`: `nearest`'s distance bit for bit and its id the smallest
    * of the nearest, range counts exactly.
    */
  private def checkDeepTree(pts: Pts, order: Seq[Int], queries: Seq[Array[Double]], radii: Seq[Double]): Unit = {
    val tree = new KdTree(pts)
    order.foreach(tree.insert)
    assert(tree.size === order.length)
    for (q <- queries) {
      val (gid, gd) = tree.nearest(q)
      val (bid, bd) = TestUtil.bruteNearest(pts, order.sorted, q)
      assert(java.lang.Double.compare(gd, bd) == 0, s"nearest: got ($gid, $gd), want distance $bd")
      assert(gid === bid)
      assert(java.lang.Double.compare(math.sqrt(pts.dist2To(gid, q)), bd) == 0)
      for (r <- radii) assert(tree.rangeCount(q, r) === TestUtil.bruteRangeCount(pts, q, r))
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
    // 1-d: 0, -1, 2, 1, 4, 3, ... in increasing steps, so every split leaves
    // about half a leaf on the left and the tree is a spine thousands of levels
    // deep; a search from the far right leaves one sibling pending per level.
    val half  = 10000
    val pts   = Pts.fromArrays(1, (0 until half).flatMap(k => Seq(Array(2.0 * k), Array(2.0 * k - 1))))
    val queries = Seq(Array(1e9), Array(-1e9), Array(7777.7))
    checkDeepTree(pts, 0 until 2 * half, queries, radii = Seq(1.5, 1e4, 1e10))
  }

  // Quantized points put many points at one position and many pairs exactly
  // equidistant from a query on the grid. Brute force over ids in ascending
  // order keeps the first of the nearest, i.e. the smallest id.
  for (d <- Seq(1, 2, 3, 5)) {
    test(s"nearest takes the smallest id among equidistant points (d=$d)") {
      val n    = 3000
      val pts  = TestUtil.quantizedPts(n, d, k = 3, sigma = 30.0, domain = 200.0, step = 10.0, seed = 70L + d)
      val rnd  = new Random(71L + d)
      val grid = Seq.fill(40)(Array.fill(d)(10.0 * rnd.nextInt(21))) ++ Seq.fill(10)(pts.point(rnd.nextInt(n)))
      val bulk = new KdTree(pts).buildAll()
      val inc  = new KdTree(pts)
      val order    = rnd.shuffle((0 until n).toVector)
      val inserted = scala.collection.mutable.ArrayBuffer.empty[Int]
      var ties     = 0
      order.zipWithIndex.foreach { case (i, step) =>
        inc.insert(i)
        inserted += i
        if (step % 97 == 0 || step == n - 1) {
          val ids = inserted.toSeq.sorted
          for (q <- grid) {
            val want = TestUtil.bruteNearest(pts, ids, q)
            assert(inc.nearest(q) === want, s"after ${step + 1} inserts")
            val d2  = ids.map(pts.dist2To(_, q))
            val min = d2.min
            if (d2.count(_ == min) > 1) ties += 1
          }
        }
      }
      for (q <- grid) assert(bulk.nearest(q) === TestUtil.bruteNearest(pts, 0 until n, q))
      assert(ties > 100, "the inputs must put several points at the nearest distance")
    }
  }

  test("nearest takes the smallest id, not the near child, on a split-plane tie") {
    // Both (-1, 0) and (1, 0) are at distance 1 from (0, 0), on opposite sides
    // of any split on x; a tree of one point per node returned id 2.
    val pts  = Pts.fromArrays(2, Seq(Array(0.0, 10.0), Array(-1.0, 0.0), Array(1.0, 0.0)))
    val tree = new KdTree(pts)
    (0 until 3).foreach(tree.insert)
    assert(tree.nearest(Array(0.0, 0.0)) === ((1, 1.0)))
    // Ids 2k and 2k + 1 at k + 1 and -(k + 1): every pair ties around 0, and
    // on a tie of the two child boxes the left (negative) one is searched first.
    val spread = Pts.fromArrays(1, (0 until 40).map(i => Array((i / 2 + 1.0) * (if (i % 2 == 0) 1 else -1))))
    val wide   = new KdTree(spread)
    (39 to 0 by -1).foreach(wide.insert)
    assert(wide.nearest(Array(0.0)) === ((0, 1.0)))
  }

  /** Replays the paper's incremental Ex-DPC loop (§3): in descending density,
    * each point's nearest point in the tree, then its insert. Asserts that
    * the dependent points equal Ex-DPC's and the distances its `delta` bit
    * for bit.
    */
  private def checkReplay(pts: Pts, dcut: Double): Unit = {
    val res  = ExDPC.run(spark, pts, DPCParams(dcut))
    val tree = new KdTree(pts)
    Order.descending(res.rho).foreach { i =>
      val (j, dist) = tree.nearest(pts.point(i))
      assert(j === res.depId(i), s"depId($i)")
      assert(java.lang.Double.compare(dist, res.delta(i)) == 0, s"delta($i): $dist != ${res.delta(i)}")
      tree.insert(i)
    }
    assert(tree.size === pts.n)
  }

  test("the incremental loop replays Ex-DPC's dependents (PointGen mixture, d=3)") {
    val centers = PointGen.gridCenters(k = 5, d = 3, domain = 100.0, seed = 41)
    val pts = Pts.fromDF(PointGen.mixture(spark, 4000, 3, centers, Array.fill(5)(6.0), 0.1, 100.0, seed = 42))
    checkReplay(pts, dcut = 4.0)
  }

  test("the incremental loop replays Ex-DPC's dependents (30x30 lattice, about 22 points per position)") {
    val rnd = new Random(324)
    val pts = Pts.fromArrays(2, Seq.fill(20000)(Array(rnd.nextInt(30).toDouble, rnd.nextInt(30).toDouble)))
    checkReplay(pts, dcut = 1.5)
  }

  test("a partly filled tree answers alike after a Java serialization round trip") {
    val pts  = TestUtil.quantizedPts(2000, 2, k = 3, sigma = 30.0, domain = 200.0, step = 10.0, seed = 80)
    val tree = new KdTree(pts)
    val rnd  = new Random(81)
    val order = rnd.shuffle((0 until pts.n).toVector)
    order.take(700).foreach(tree.insert)
    val bytes = new ByteArrayOutputStream()
    val out   = new ObjectOutputStream(bytes)
    out.writeObject(tree)
    out.close()
    val copy = new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[KdTree]
    val queries = Seq.fill(30)(Array.fill(2)(10.0 * rnd.nextInt(21))) ++ Seq.fill(10)(pts.point(rnd.nextInt(pts.n)))
    // The copy answers every query as the original does.
    def same(): Unit = {
      assert(copy.size === tree.size)
      for (q <- queries) {
        assert(copy.nearest(q) === tree.nearest(q))
        assert(copy.nearest(q, bound = 15.0) === tree.nearest(q, bound = 15.0))
        for (r <- Seq(0.0, 10.0, 25.0, 1e4)) assert(copy.rangeCount(q, r) === tree.rangeCount(q, r))
      }
    }
    same()
    // The copy's activation state is its own and still works: insert the rest into both.
    order.drop(700).foreach { i => tree.insert(i); copy.insert(i) }
    same()
    assert(copy.size === pts.n)
  }
}
