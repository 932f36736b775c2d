package repro.bench

import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.exp.Tables

/** Benchmark suite: one test per paper table. Each prints the measured rows
  * with the paper's published values inline to standard output and checks the
  * table's row count; `sbt "bench/test"` regenerates all of them (see
  * EXPERIMENTS.md for the recorded side-by-side numbers).
  */
class TableBenches extends SparkSpec {
  private val tables = Seq[(String, SparkSession => Seq[String], Int)](
    ("Table 2: Rand index vs noise rate on Syn", Tables.table2, 5),
    ("Table 3: Rand index on S1..S4", Tables.table3, 4),
    ("Table 4: Rand index on real stand-ins", Tables.table4, 4),
    ("Table 5: S-Approx-DPC time vs accuracy over epsilon", Tables.table5, 10),
    ("Table 6: decomposed rho/delta times, all algorithms", Tables.table6, 28),
    ("Table 7: memory usage", Tables.table7, 24))

  for ((title, table, minRows) <- tables) test(title) {
    val rows = table(spark)
    rows.foreach(println)
    assert(rows.count(_.contains("|")) >= minRows)
  }
}
