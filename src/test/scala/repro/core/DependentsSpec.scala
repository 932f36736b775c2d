package repro.core

import java.util.concurrent.atomic.AtomicLong
import repro.{SparkSpec, TestUtil}
import scala.util.Random

/** [[Dependents.search]]: each task writes `depId` and `delta` of its own
  * queries in place, at the queries' ids, and touches no other entry.
  */
class DependentsSpec extends SparkSpec {

  private val n   = 1013
  private lazy val pts = TestUtil.uniformPts(n, 2, 100.0, seed = 901)

  /** Queries as a permutation of the ids, so a position is not an id, and a
    * dependent id (or -1) per position.
    */
  private lazy val (queries, deps) = {
    val rnd = new Random(902)
    (rnd.shuffle((0 until n).toVector).toArray, Array.fill(n)(rnd.nextInt(n + 1) - 1))
  }

  /** The entries `search` must write for the query at position `k`. */
  private def expected(queries: Array[Int], k: Int): (Int, Double) = {
    val j = deps(k)
    (j, if (j < 0) Double.PositiveInfinity else pts.dist(queries(k), j))
  }

  /** Sentinel-filled outputs, `search` over `queries` and `groups` with the
    * kernel `k => deps(k)`: checks every query's entries bit for bit and that
    * every other entry still holds its sentinel. Returns the Spark work.
    */
  private def checkWrites(queries: Array[Int], groups: Array[Array[Int]]): (Int, Int, Long) = {
    val depId = Array.fill(n)(-7)
    val delta = Array.fill(n)(42.5)
    val work  = TestUtil.sparkWork(spark) {
      Dependents.search(spark, pts, queries, groups, depId, delta)(() => k => deps(k))
    }
    val isQuery = queries.toSet
    queries.indices.foreach { k =>
      val (j, dd) = expected(queries, k)
      val i       = queries(k)
      assert(depId(i) === j, s"query $i at position $k")
      assert(java.lang.Double.compare(delta(i), dd) == 0, s"query $i at position $k: delta ${delta(i)} != $dd")
    }
    (0 until n).filterNot(isQuery).foreach { i =>
      assert(depId(i) === -7 && delta(i) === 42.5, s"point $i is no query but was written")
    }
    work
  }

  test("the factory runs once per group and the kernel once per query, each result at its query's id") {
    val rnd = new Random(903)
    // Groups out of order, with empty groups among them.
    val mixed = Array(Array(4, 0), Array.empty[Int], Array(2), Array(5, 1, 3), Array.empty[Int]) :+ Array.range(6, n)
    for (groups <- Seq(
        Par.lpt(Array.fill(n)(rnd.nextDouble()), 6), Par.indexed(spark, n), Par.ranges(n, 7),
        Par.sliced(spark, rnd.shuffle((0 until n).toVector).toArray), mixed)) {
      assert(groups.flatten.sorted.toSeq === (0 until n))
      // The tasks update the driver's own counters, concurrently.
      val factories = new AtomicLong
      val items     = new AtomicLong
      val depId     = new Array[Int](n)
      val delta     = new Array[Double](n)
      Dependents.search(spark, pts, queries, groups, depId, delta) { () =>
        factories.incrementAndGet()
        k => { items.incrementAndGet(); deps(k) }
      }
      queries.indices.foreach { k =>
        val (j, dd) = expected(queries, k)
        assert(depId(queries(k)) === j)
        assert(java.lang.Double.compare(delta(queries(k)), dd) == 0)
      }
      assert((factories.get, items.get) === ((groups.length.toLong, n.toLong)))
    }
  }

  test("a single group runs on the driver with no Spark job, and no queries write nothing") {
    assert(checkWrites(queries, Array(queries.indices.reverse.toArray)) === ((0, 0, 0L)))
    assert(checkWrites(Array.empty, Par.indexed(spark, 0)) === ((0, 0, 0L)))
    assert(checkWrites(Array.empty, Par.lpt(Array.empty[Double], 4)) === ((0, 0, 0L)))
  }

  test("a subset of queries writes only those queries' entries, on the driver and fanned out") {
    val subset = queries.filter(_ % 3 == 1)
    assert(checkWrites(subset, Array(subset.indices.toArray)) === ((0, 0, 0L)), "driver path")
    val groups = Par.indexed(spark, subset.length)
    assert(groups.length > 1)
    assert(checkWrites(subset, groups) === ((1, 1, 0L)), "fan-out path")
  }
}
