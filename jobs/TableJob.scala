package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Tables

/** `spark-submit --class repro.jobs.TableJob <2..7>`: runs one of the paper's
  * Tables 2–7 and prints its rows.
  */
object TableJob {
  private val tables: Map[String, SparkSession => Seq[String]] = Map(
    "2" -> Tables.table2, "3" -> Tables.table3, "4" -> Tables.table4,
    "5" -> Tables.table5, "6" -> Tables.table6, "7" -> Tables.table7)

  def main(args: Array[String]): Unit = {
    val table = args match {
      case Array(k) if tables.contains(k) => tables(k)
      case _ =>
        System.err.println("usage: spark-submit --class repro.jobs.TableJob <jar> <2|3|4|5|6|7>")
        sys.exit(2)
    }
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"table${args(0)}")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    try table(spark).foreach(println) finally spark.stop()
  }
}
