package repro.core

import org.apache.spark.SparkException
import org.apache.spark.broadcast.Broadcast
import repro.{SparkSpec, TestUtil}
import scala.collection.mutable

/** The run context: one broadcast per shared object, every share released
  * when the run ends however it ends, and phase times within the run's wall
  * time.
  */
class RunSpec extends SparkSpec {

  // Each test keeps its shares reachable, so that Spark's ContextCleaner,
  // which removes the broadcasts it finds garbage-collected, cannot hide a
  // missing release.
  private val shares = mutable.ArrayBuffer.empty[Broadcast[_]]

  test("a task that throws gives a SparkException and leaves no live share") {
    TestUtil.assertReleases(spark) {
      intercept[SparkException](Run(spark) { run =>
        val xs = run.share(Array.range(0, 1000))
        val ys = run.share(Array.fill(1000)(1.0))
        shares ++= Seq(xs, ys)
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
        shares ++= Seq(run.share(Array.range(0, 1000)), run.share(Array.fill(1000)(1.0)))
        throw new IllegalStateException("driver")
      })
    }
  }

  test("sharing the same object twice makes one broadcast; an equal copy makes its own") {
    val xs = Array.range(0, 1000)
    assert(TestUtil.broadcastsIn(spark) {
      Run(spark) { run =>
        val a = run.share(xs)
        assert(run.share(xs) eq a)
        assert(run.share(xs.clone()) ne a)
      }
    } === 2)
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
