package repro.core

import java.util.concurrent.{CyclicBarrier, TimeUnit}
import org.apache.spark.SparkException
import repro.{SparkSpec, TestUtil}
import scala.concurrent.{blocking, Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._

/** The run context: a share is one registry entry per shared object whose
  * value, in a task, is the driver's own object; every share is released when
  * the run ends however it ends; phase times lie within the run's wall time.
  */
class RunSpec extends SparkSpec {

  test("a task reads the driver's own object") {
    val xs = new Array[Int](1000)
    val (ids, bcasts) = Run(spark) { run =>
      val sh  = run.share(xs)
      var ids = Array.empty[Int]
      // Each task writes its items into the shared array: a copy's writes
      // would not reach `xs`.
      val bcasts = TestUtil.broadcastsIn(spark) {
        ids = Par.mapGroups(spark, Par.indexed(spark, 1000)) { g =>
          val a = sh.value
          g.foreach(i => a(i) = i + 1)
          System.identityHashCode(a)
        }
      }
      (ids, bcasts)
    }
    assert(xs.toSeq === (1 to 1000))
    assert(ids.distinct.toSeq === Seq(System.identityHashCode(xs)))
    assert(bcasts === 1, "one task binary and nothing else")
  }

  test("a normal run leaves no live share") {
    TestUtil.assertReleases(spark) {
      Run(spark) { run =>
        val xs = run.share(Array.range(0, 1000))
        Par.mapGroups(spark, Par.indexed(spark, 1000))(g => g.map(i => xs.value(i)).sum)
      }
    }
  }

  test("a task that throws gives a SparkException and leaves no live share") {
    TestUtil.assertReleases(spark) {
      intercept[SparkException](Run(spark) { run =>
        val xs = run.share(Array.range(0, 1000))
        val ys = run.share(Array.fill(1000)(1.0))
        Par.mapGroups(spark, Par.indexed(spark, 1000)) { g =>
          if (g.contains(500)) throw new IllegalStateException("task")
          g.map(i => xs.value(i) * ys.value(i)).sum
        }
      })
    }
  }

  test("a throw on the driver inside the body releases every share") {
    TestUtil.assertReleases(spark) {
      intercept[IllegalStateException](Run(spark) { run =>
        run.share(Array.range(0, 1000))
        run.share(Array.fill(1000)(1.0))
        throw new IllegalStateException("driver")
      })
    }
  }

  test("sharing the same object twice makes one share; an equal copy makes its own") {
    val xs = Array.range(0, 1000)
    assert(TestUtil.sharesIn {
      Run(spark) { run =>
        val a = run.share(xs)
        assert(run.share(xs) eq a)
        val b = run.share(xs.clone())
        assert(b ne a)
        assert(b.key != a.key)
      }
    } === 2)
  }

  test("a share read after its run has ended throws") {
    val sh = Run(spark)(_.share(Array(1, 2, 3)))
    intercept[IllegalStateException](sh.value)
  }

  test("two runs on two driver threads at once each read only their own shares") {
    val n       = 1000
    val barrier = new CyclicBarrier(2)
    TestUtil.assertReleases(spark) {
      val runs = Seq(1.0, 2.0).map { v =>
        Future {
          Run(spark) { run =>
            val sh = run.share(Array.fill(n)(v))
            blocking(barrier.await(60, TimeUnit.SECONDS)) // both runs hold their shares from here on
            Par.mapGroups(spark, Par.indexed(spark, n)) { g =>
              val a = sh.value
              g.map(i => a(i))
            }.flatten
          }
        }
      }
      val out = runs.map(Await.result(_, 60.seconds))
      assert(out.map(_.toSeq) === Seq(Seq.fill(n)(1.0), Seq.fill(n)(2.0)))
    }
  }

  test("only a local master runs tasks in the driver's JVM") {
    Seq("local", "local[4]", "local[*]", "local[2,3]").foreach(m => assert(Run.isLocal(m), m))
    Seq("local-cluster[2,1,1024]", "spark://h:7077", "yarn", "k8s://h:443", "localhost", "local[4")
      .foreach(m => assert(!Run.isLocal(m), m))
  }

  test("phase times add up over blocks, are non-negative and at most the call's wall time") {
    val t0 = System.nanoTime()
    val times = Run(spark) { run =>
      run.rho(Thread.sleep(20))
      Thread.sleep(15) // outside both phases
      run.delta(Thread.sleep(10))
      run.rho(Thread.sleep(5))
      run.times
    }
    val wallMs = (System.nanoTime() - t0) / 1000000L
    assert(times.densityMs >= 25 && times.dependentMs >= 10)
    assert(times.totalMs <= wallMs - 15)
  }
}
