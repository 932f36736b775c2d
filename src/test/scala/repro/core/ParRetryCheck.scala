package repro.core

import java.util.concurrent.atomic.AtomicIntegerArray
import org.apache.spark.SparkException
import org.apache.spark.sql.SparkSession

/** Runs [[Par.mapGroups]] under a master that tries each task twice,
  * `local[2,2]`, and prints one line per check, `ok <check>` or
  * `FAIL <check>: <what was seen>`; exits 1 if a check failed. `ParSpec`
  * starts it in a JVM of its own, because a JVM holds one SparkContext and
  * the suites' shared one never retries a task.
  *
  * Both checks run 8 groups of 10 items on 2 cores, so tasks 0 and 1 start
  * on groups 0 and 1 and claim the others; group 5 throws, on its first call
  * only or on every call.
  */
object ParRetryCheck {
  private val Bad = 5

  def main(args: Array[String]): Unit = {
    val spark  = SparkSession.builder.master("local[2,2]").appName("ParRetryCheck").getOrCreate()
    var failed = false
    def check(name: String, ok: Boolean, seen: => String): Unit = {
      println(if (ok) s"ok $name" else s"FAIL $name: $seen")
      failed ||= !ok
    }
    try {
      val groups = Par.ranges(80, 8)

      val calls   = new AtomicIntegerArray(groups.length)
      val written = new Array[Int](80)
      val out = Par.mapGroups(spark, groups) { g =>
        val k = g.head / 10
        if (calls.getAndIncrement(k) == 0 && k == Bad) {
          g.take(3).foreach(written(_) = -1)
          throw new IllegalStateException(s"group $k, first call")
        }
        g.foreach(i => written(i) = i + 1)
        k
      }
      val counts = (0 until groups.length).map(calls.get)
      check("a group that fails once", out.toSeq == (0 until 8) && written.toSeq == (1 to 80) &&
        counts == (0 until 8).map(k => if (k == Bad) 2 else 1),
        s"results ${out.mkString(",")}, written ${written.mkString(",")}, calls per group ${counts.mkString(",")}")

      val always = new AtomicIntegerArray(groups.length)
      val keys   = Par.keys.get
      val thrown =
        try { Par.mapGroups(spark, groups) { g => always.incrementAndGet(g.head / 10); if (g.head / 10 == Bad) throw new IllegalStateException("always"); 0 }; None }
        catch { case e: SparkException => Some(e) }
      val causes = thrown.toSeq.flatMap(e => Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null))
      val live   = (keys until Par.keys.get).filter(k => Par.registry.containsKey(k))
      check("a group that always fails",
        causes.exists(c => c.isInstanceOf[IllegalStateException] && c.getMessage == "always") && always.get(Bad) == 2 && live.isEmpty,
        s"causes ${causes.mkString("; ")}, calls of group $Bad ${always.get(Bad)}, live registry keys ${live.mkString(",")}")
    } finally spark.stop()
    if (failed) sys.exit(1)
  }
}
