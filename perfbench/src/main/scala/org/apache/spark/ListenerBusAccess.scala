package org.apache.spark

/** Spark's listener bus is internal to the `org.apache.spark` package; the
  * benchmark needs it to wait until its listener has seen every event of a
  * call before reading them.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
