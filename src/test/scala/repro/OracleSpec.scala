package repro

import org.apache.spark.sql.functions._
import repro.traj.TrajGen

/** Coverage of the DuckDB oracle harness itself, over a small generated MOD. */
class OracleSpec extends SparkSpec {

  private def pts = TrajGen.points(TrajGen.generate(spark,
    TrajGen.Params(nGroups = 2, perGroup = 3, nNoise = 2, tSteps = 10, seed = 4L)))

  test("oracle: samples per object match DuckDB") {
    val df = pts
    val sparkSide = df.groupBy("obj_id")
      .agg(count(lit(1)) as "n", round(sum("x"), 2) as "sx")
    val sql =
      """SELECT CAST(obj_id AS BIGINT) AS obj_id, COUNT(*) AS n,
        |       ROUND(SUM(CAST(x AS DOUBLE)), 2) AS sx
        |FROM pts GROUP BY 1""".stripMargin
    Oracle.assertEquivalent(sparkSide, sql, "pts" -> df)
  }

  test("oracle: detects a wrong result") {
    val df = pts
    val wrong = df.groupBy("obj_id").agg((count(lit(1)) + 1) as "n")
    val sql = "SELECT CAST(obj_id AS BIGINT) AS obj_id, COUNT(*) AS n FROM pts GROUP BY 1"
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, sql, "pts" -> df)
    }
  }

  test("oracle: rejects column-name mismatches") {
    val df = pts
    val sparkSide = df.groupBy("obj_id").agg(count(lit(1)) as "wrong_name")
    val sql = "SELECT CAST(obj_id AS BIGINT) AS obj_id, COUNT(*) AS n FROM pts GROUP BY 1"
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(sparkSide, sql, "pts" -> df)
    }
  }
}
