package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** The driver's block manager is internal to the `org.apache.spark` package;
  * the tests read it to see which broadcasts are still alive.
  */
object BlockManagerAccess {
  /** Ids of the broadcasts that hold a block in the driver's block manager. */
  def broadcastIds(sc: SparkContext): Seq[Long] =
    sc.env.blockManager.getMatchingBlockIds(_.isBroadcast).collect { case BroadcastBlockId(id, _) => id }.distinct
}
