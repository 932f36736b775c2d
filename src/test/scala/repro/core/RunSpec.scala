package repro.core

import org.apache.spark.SparkException
import repro.{SparkSpec, TestUtil}

/** The run context: no fan-out inside a run leaves a registry entry behind,
  * however the run ends, and phase times lie within the run's wall time.
  */
class RunSpec extends SparkSpec {

  test("a normal run leaves no live share") {
    TestUtil.assertReleases(spark) {
      Run(spark) { _ =>
        val xs = Array.range(0, 1000)
        assert(Par.mapGroups(spark, Par.indexed(spark, 1000))(g => g.map(xs(_)).sum).sum === xs.sum)
      }
    }
  }

  test("a task that throws gives a SparkException and leaves no live share") {
    TestUtil.assertReleases(spark) {
      intercept[SparkException](Run(spark) { _ =>
        val xs = Array.range(0, 1000)
        val ys = Array.fill(1000)(1.0)
        Par.mapGroups(spark, Par.indexed(spark, 1000)) { g =>
          if (g.contains(500)) throw new IllegalStateException("task")
          g.map(i => xs(i) * ys(i)).sum
        }
      })
    }
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
