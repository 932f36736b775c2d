package repro.bench

import repro.SparkSpec
import repro.exp.Tables

/** Benchmark suites — one per paper table. Each prints the measured rows with
  * the paper's published values inline to standard output; `sbt "bench/test"`
  * regenerates all of them (see EXPERIMENTS.md for the recorded side-by-side
  * numbers).
  */
class Table2Bench extends SparkSpec {
  test("Table 2: Rand index vs noise rate on Syn") {
    val rows = Tables.table2(spark)
    rows.foreach(println)
    assert(rows.count(_.contains("|")) >= 5)
  }
}

class Table3Bench extends SparkSpec {
  test("Table 3: Rand index on S1..S4") {
    val rows = Tables.table3(spark)
    rows.foreach(println)
    assert(rows.count(_.contains("|")) >= 4)
  }
}

class Table4Bench extends SparkSpec {
  test("Table 4: Rand index on real stand-ins") {
    val rows = Tables.table4(spark)
    rows.foreach(println)
    assert(rows.count(_.contains("|")) >= 4)
  }
}

class Table5Bench extends SparkSpec {
  test("Table 5: S-Approx-DPC time vs accuracy over epsilon") {
    val rows = Tables.table5(spark)
    rows.foreach(println)
    assert(rows.count(_.contains("|")) >= 10)
  }
}

class Table6Bench extends SparkSpec {
  test("Table 6: decomposed rho/delta times, all algorithms") {
    val rows = Tables.table6(spark)
    rows.foreach(println)
    assert(rows.count(_.contains("|")) >= 28)
  }
}

class Table7Bench extends SparkSpec {
  test("Table 7: memory usage") {
    val rows = Tables.table7(spark)
    rows.foreach(println)
    assert(rows.count(_.contains("|")) >= 24)
  }
}
