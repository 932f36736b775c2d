package repro.core

import repro.{SparkSpec, TestUtil}
import repro.kdtree.MaxRhoKdTree
import scala.util.Random

/** The max-density kd-tree search behind [[ExactDependents]] against brute
  * force: `delta` bit-identical, `depId` a strictly denser universe point at
  * that distance (the smallest such id, as the brute force picks).
  */
class ExactDependentsSpec extends SparkSpec {

  /** Brute-force nearest strictly denser point of `q` within `universe`. */
  private def bruteOver(pts: Pts, rho: Array[Double], universe: Array[Int], q: Int): (Int, Double) = {
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

  private def checkAll(
      pts: Pts, rho: Array[Double], universe: Array[Int], queries: Array[Int],
      out: Array[(Int, Int, Double)], expected: Int => (Int, Double)): Unit = {
    assert(out.map(_._1).sorted.toSeq === queries.sorted.toSeq)
    val inUniverse = universe.toSet
    out.foreach { case (q, dep, dd) =>
      val (depB, deltaB) = expected(q)
      assert(java.lang.Double.compare(dd, deltaB) == 0, s"query $q: delta $dd != $deltaB")
      if (depB < 0) assert(dep === -1, s"query $q has no denser point")
      else {
        assert(inUniverse(dep), s"query $q: dep $dep outside the universe")
        assert(rho(dep) > rho(q), s"query $q: dep $dep not denser")
        assert(java.lang.Double.compare(pts.dist(q, dep), dd) == 0, s"query $q: dep $dep not at distance $dd")
        assert(dep === depB, s"query $q: tie broken towards $dep, expected smallest id $depB")
      }
    }
  }

  /** [[ExactDependents.search]] into fresh arrays, read back in the order of
    * `queries`.
    */
  private def search(
      tree: MaxRhoKdTree, pts: Pts, rho: Array[Double], universe: Array[Int], queries: Array[Int]
  ): (Array[Int], Array[Double]) = {
    val depId = new Array[Int](pts.n)
    val delta = new Array[Double](pts.n)
    ExactDependents.search(spark, tree, pts, rho, universe, queries, depId, delta)
    (queries.map(depId), queries.map(delta))
  }

  // Duplicate-heavy 3-d points (step 10, dcut 20: many points share a
  // position, so equidistant denser candidates are common), with a small
  // query set and the smallest query set whose estimated work reaches
  // Par.FanOutWork, spread over the whole universe.
  private lazy val dup3 = {
    val pts   = TestUtil.quantizedPts(20000, 3, k = 4, sigma = 40.0, domain = 1000.0, step = 10.0, seed = 818)
    val rho   = TestUtil.bruteRho(pts, 20.0)
    val all   = Array.range(0, pts.n)
    val big   = math.ceil(Par.FanOutWork / ExactDependents.queryWork(pts.n, pts.d)).toInt
    val small = Array.range(0, pts.n, 97)
    (pts, rho, all, small, Array.tabulate(big)(k => (k.toLong * pts.n / big).toInt))
  }

  // Only a fan-out makes a registry entry, one per job.
  test("a small query set runs on the driver: no Spark job and no broadcast") {
    val (pts, rho, all, small, _) = dup3
    assert(small.length * ExactDependents.queryWork(pts.n, pts.d) < Par.FanOutWork)
    var out = Array.empty[(Int, Int, Double)]
    var dep = Array.empty[Int]
    val tree = MaxRhoKdTree.build(pts, all)
    assert(TestUtil.sparkWork(spark) {
      assert(TestUtil.broadcastsIn(spark) {
        assert(TestUtil.sharesIn { out = ExactDependents.compute(spark, pts, rho, all, small) } === 0)
        assert(TestUtil.sharesIn { dep = search(tree, pts, rho, all, small)._1 } === 0)
      } === 0)
    } === ((0, 0, 0L)), "(jobs, stages, shuffle bytes)")
    assert(out.map(_._2).toSeq === dep.toSeq)
  }

  test("a query set whose estimated work reaches Par.FanOutWork runs one job of one stage with no shuffle") {
    val (pts, rho, all, _, big) = dup3
    assert(big.length * ExactDependents.queryWork(pts.n, pts.d) >= Par.FanOutWork)
    assert((big.length - 1) * ExactDependents.queryWork(pts.n, pts.d) < Par.FanOutWork)
    // One group per core: on a single core that one group runs on the driver.
    val fansOut  = spark.sparkContext.defaultParallelism > 1
    val expected = if (fansOut) (1, 1, 0L) else (0, 0, 0L)
    val tree = MaxRhoKdTree.build(pts, all)
    assert(TestUtil.sparkWork(spark)(ExactDependents.compute(spark, pts, rho, all, big)) === expected)
    // The search on a prebuilt tree, as Approx-DPC's makes on its grid pass's
    // tree, broadcasts nothing but the stage's task binary, and its one job
    // makes one registry entry.
    var bcasts  = 0L
    var entries = 0L
    assert(TestUtil.sparkWork(spark) {
      bcasts = TestUtil.broadcastsIn(spark) {
        entries = TestUtil.sharesIn(search(tree, pts, rho, all, big))
      }
    } === expected)
    assert(bcasts === expected._2)
    assert(entries === expected._1)
  }

  test("the driver path and the fan-out path match brute force bit for bit, ties to the smallest id") {
    val (pts, rho, all, small, big) = dup3
    val (depB, deltaB) = TestUtil.bruteDependents(pts, rho)
    for (queries <- Seq(small, big)) {
      val out = ExactDependents.compute(spark, pts, rho, all, queries)
      checkAll(pts, rho, all, queries, out, q => (depB(q), deltaB(q)))
    }
    // The tie rule is exercised: some query has two denser points at its delta.
    val tied = small.count { q =>
      depB(q) >= 0 && all.count(j => rho(j) > rho(q) && pts.dist(q, j) == deltaB(q)) > 1
    }
    assert(tied > 0)
  }

  test("20k duplicate-heavy points on a coarse 2-d grid match brute force") {
    val rnd = new Random(811)
    val pts = Pts.fromArrays(2, Seq.fill(20000)(Array(rnd.nextInt(25) * 40.0, rnd.nextInt(25) * 40.0)))
    // Density = number of points sharing the position, made distinct by the jitter.
    val copies = pts.data.grouped(2).map(_.toSeq).toSeq.groupBy(identity).view.mapValues(_.size).toMap
    val rho    = Array.tabulate(pts.n)(i => copies(Seq(pts.coord(i, 0), pts.coord(i, 1))) + Jitter.frac(i))
    val all    = Array.tabulate(pts.n)(identity)
    val (depB, deltaB) = TestUtil.bruteDependents(pts, rho)
    val out = ExactDependents.compute(spark, pts, rho, all, all)
    checkAll(pts, rho, all, all, out, q => (depB(q), deltaB(q)))
    assert(out.count(_._2 < 0) === 1)
  }

  test("8-d uniform points match brute force") {
    val pts = TestUtil.uniformPts(1500, 8, 1000.0, seed = 812)
    val rho = TestUtil.bruteRho(pts, 400.0)
    val all = Array.tabulate(pts.n)(identity)
    val (depB, deltaB) = TestUtil.bruteDependents(pts, rho)
    val out = ExactDependents.compute(spark, pts, rho, all, all)
    checkAll(pts, rho, all, all, out, q => (depB(q), deltaB(q)))
  }

  test("a one-point universe answers (-1, +inf)") {
    val pts = TestUtil.uniformPts(10, 3, 100.0, seed = 813)
    val rho = TestUtil.bruteRho(pts, 30.0)
    val out = ExactDependents.compute(spark, pts, rho, Array(4), Array(4))
    assert(out.toSeq === Seq((4, -1, Double.PositiveInfinity)))
  }

  test("the densest query has no denser point and gets (-1, +inf)") {
    val pts  = TestUtil.clusteredPts(800, 2, k = 3, sigma = 30.0, domain = 1000.0, seed = 814)
    val rho  = TestUtil.bruteRho(pts, 40.0)
    val all  = Array.tabulate(pts.n)(identity)
    val peak = all.maxBy(rho)
    val queries = Array(peak, (peak + 1) % pts.n, (peak + 2) % pts.n)
    val out = ExactDependents.compute(spark, pts, rho, all, queries)
    assert(out.find(_._1 == peak).get === ((peak, -1, Double.PositiveInfinity)))
    checkAll(pts, rho, all, queries, out, q => bruteOver(pts, rho, all, q))
  }

  test("a restricted universe with no densities outside it, as S-Approx-DPC's fallback uses") {
    val pts      = TestUtil.clusteredPts(3000, 3, k = 4, sigma = 40.0, domain = 1000.0, seed = 815)
    val full     = TestUtil.bruteRho(pts, 60.0)
    val universe = (0 until pts.n).filter(i => i % 5 == 0 || i % 7 == 0).toArray
    val rho      = Array.fill(pts.n)(Double.NaN)
    universe.foreach(i => rho(i) = full(i))
    val queries  = universe.filter(_ % 3 == 0)
    val out = ExactDependents.compute(spark, pts, rho, universe, queries)
    checkAll(pts, rho, universe, queries, out, q => bruteOver(pts, rho, universe, q))
  }

  test("a tree over all points answers a restricted universe like a tree over the universe") {
    val pts      = TestUtil.clusteredPts(2500, 2, k = 3, sigma = 30.0, domain = 1000.0, seed = 817)
    val full     = TestUtil.bruteRho(pts, 40.0)
    val universe = (0 until pts.n by 3).toArray
    val rho      = Array.fill(pts.n)(Double.NaN)
    universe.foreach(i => rho(i) = full(i))
    val tree = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
    val (dep, delta) = search(tree, pts, rho, universe, universe)
    val out = Array.tabulate(universe.length)(k => (universe(k), dep(k), delta(k)))
    assert(out.toSeq === ExactDependents.compute(spark, pts, rho, universe, universe).toSeq)
    checkAll(pts, rho, universe, universe, out, q => bruteOver(pts, rho, universe, q))
  }

  test("no queries or an empty universe return without a search") {
    val pts = TestUtil.uniformPts(20, 2, 100.0, seed = 816)
    val rho = TestUtil.bruteRho(pts, 30.0)
    assert(ExactDependents.compute(spark, pts, rho, Array.tabulate(20)(identity), Array.empty).isEmpty)
    assert(ExactDependents.compute(spark, pts, rho, Array.empty, Array(3)).toSeq ===
      Seq((3, -1, Double.PositiveInfinity)))
    // search answers both through its general path; an empty query set
    // starts no Spark job and broadcasts nothing.
    val tree = MaxRhoKdTree.build(pts, Array.range(0, pts.n))
    var dep0 = Array(0)
    assert(TestUtil.sparkWork(spark) {
      assert(TestUtil.broadcastsIn(spark) {
        assert(TestUtil.sharesIn {
          dep0 = search(tree, pts, rho, Array.range(0, pts.n), Array.empty)._1
        } === 0)
      } === 0)
    } === ((0, 0, 0L)), "(jobs, stages, shuffle bytes)")
    assert(dep0.isEmpty)
    val (dep1, delta1) = search(tree, pts, rho, Array.empty, Array(3))
    assert(dep1.toSeq === Seq(-1) && delta1.toSeq === Seq(Double.PositiveInfinity))
  }

  test("memBytes models the tree's leaf-order arrays, node arrays and boxes") {
    assert(MaxRhoKdTree.nodeCount(1000) === 127) // 64 leaves of 15-16 ids
    // Per node: slot range and right child, smallest id, maxRho, box.
    assert(MaxRhoKdTree.memBytes(1000, 3) === 1000L * (4 + 24 + 8) + 127L * (12 + 4 + 8 + 48))
  }
}
