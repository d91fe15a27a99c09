package repro.voting

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.baselines.NaiveVoting
import repro.model.TrajPoint
import repro.traj.TrajGen

class VotingSpec extends SparkSpec {

  private def df(pts: Seq[TrajPoint]) = {
    import spark.implicits._
    pts.map(p => (p.objId, p.t, p.x, p.y)).toDF("obj_id", "t", "x", "y")
  }

  test("a lone object receives zero votes") {
    val pts = Seq(TrajPoint(1, 0, 0, 0), TrajPoint(1, 10, 1, 0))
    val got = Voting.votes(df(pts), sigma = 1.5).collect()
    assert(got.length == 2)
    assert(got.forall(_.getAs[Double]("vote") == 0.0))
  }

  test("two coincident objects vote 1.0 for each other") {
    val pts = Seq(TrajPoint(1, 0, 5, 5), TrajPoint(2, 0, 5, 5))
    val got = Voting.votes(df(pts), sigma = 1.5).collect()
    assert(got.length == 2)
    got.foreach(r => assert(math.abs(r.getAs[Double]("vote") - 1.0) < 1e-9))
  }

  test("vote follows the Gaussian kernel of the distance") {
    val sigma = 2.0
    val d = 3.0
    val pts = Seq(TrajPoint(1, 0, 0, 0), TrajPoint(2, 0, d, 0))
    val got = Voting.votes(df(pts), sigma).collect()
    val expected = math.exp(-d * d / (2 * sigma * sigma))
    got.foreach(r => assert(math.abs(r.getAs[Double]("vote") - expected) < 1e-9))
  }

  test("objects beyond the 3-sigma cutoff contribute nothing") {
    val sigma = 1.0
    val pts = Seq(TrajPoint(1, 0, 0, 0), TrajPoint(2, 0, 3.5, 0))
    val got = Voting.votes(df(pts), sigma).collect()
    got.foreach(r => assert(r.getAs[Double]("vote") == 0.0))
  }

  test("a pair exactly at the cutoff still contributes (closed ball)") {
    val sigma = 1.0
    val pts = Seq(TrajPoint(1, 0, 0, 0), TrajPoint(2, 0, 3.0, 0))
    val got = Voting.votes(df(pts), sigma).collect()
    got.foreach(r => assert(r.getAs[Double]("vote") > 0.0))
  }

  test("objects at different timestamps never vote for each other") {
    val pts = Seq(TrajPoint(1, 0, 0, 0), TrajPoint(2, 10, 0, 0))
    val got = Voting.votes(df(pts), sigma = 1.5).collect()
    got.foreach(r => assert(r.getAs[Double]("vote") == 0.0))
  }

  test("votes accumulate over multiple co-located objects") {
    val pts = (1L to 5L).map(o => TrajPoint(o, 0, 0, 0))
    val got = Voting.votes(df(pts), sigma = 1.5).collect()
    got.foreach(r => assert(math.abs(r.getAs[Double]("vote") - 4.0) < 1e-9))
  }

  test("an object never votes for itself even when co-located with itself in time") {
    // one object, two samples at different t — no same-t other-object pair exists
    val pts = Seq(TrajPoint(1, 0, 0, 0), TrajPoint(1, 10, 0, 0), TrajPoint(2, 0, 100, 100))
    val got = Voting.votes(df(pts), sigma = 1.5).collect()
    got.foreach(r => assert(r.getAs[Double]("vote") == 0.0))
  }

  test("pairs straddling a grid-cell border are still found") {
    val sigma = 1.0 // cell = 3.0
    val pts = Seq(TrajPoint(1, 0, 2.9, 0), TrajPoint(2, 0, 3.1, 0)) // cells 0 and 1
    val got = Voting.votes(df(pts), sigma).collect()
    val expected = math.exp(-0.2 * 0.2 / 2.0)
    got.foreach(r => assert(math.abs(r.getAs[Double]("vote") - expected) < 1e-9))
  }

  test("negative coordinates bucket correctly (floor, not truncation)") {
    val sigma = 1.0
    val pts = Seq(TrajPoint(1, 0, -0.1, 0), TrajPoint(2, 0, 0.1, 0))
    val got = Voting.votes(df(pts), sigma).collect()
    got.foreach(r => assert(r.getAs[Double]("vote") > 0.9))
  }

  test("rejects non-positive sigma") {
    intercept[IllegalArgumentException] { Voting.votes(df(Seq(TrajPoint(1, 0, 0, 0))), 0.0) }
  }

  test("Spark votes equal the local reference on a generated MOD") {
    // NaiveVoting shares no code with the kernel: a full scan per sample.
    val p = TrajGen.Params(nGroups = 2, perGroup = 5, nNoise = 3, tSteps = 20, seed = 5L)
    val local = TrajGen.generateLocal(p).map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y))
    val expected = local.map(lp => (lp.objId, lp.t))
      .zip(NaiveVoting.votes(local, sigma = 1.5)).toMap
    val got = Voting.votes(df(local.toSeq), sigma = 1.5).collect()
    assert(got.length == local.length)
    got.foreach { r =>
      val k = (r.getAs[Long]("obj_id"), r.getAs[Long]("t"))
      assert(math.abs(r.getAs[Double]("vote") - expected(k)) < 1e-9, s"mismatch at $k")
    }
  }

  test("votes are identical for any shuffle partition count and input row order") {
    val p = TrajGen.Params(nGroups = 2, perGroup = 5, nNoise = 3, tSteps = 20, seed = 8L)
    val local = TrajGen.generateLocal(p).map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y))
    def run(pts: Seq[TrajPoint]): Map[(Long, Long), Double] =
      Voting.votes(df(pts), sigma = 1.5).collect()
        .map(r => (r.getAs[Long]("obj_id"), r.getAs[Long]("t")) -> r.getAs[Double]("vote")).toMap
    val default = run(local.toSeq)
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    val single = try { spark.conf.set(key, "1"); run(local.toSeq) } finally spark.conf.set(key, saved)
    val shuffled = run(new scala.util.Random(3L).shuffle(local.toSeq))
    assert(default.size == local.length)
    assert(single == default, "one shuffle partition must give the same votes")
    assert(shuffled == default, "input row order must not change the votes")
  }

  test("votesLocal is symmetric in contribution for a pair") {
    val pts = Array(TrajPoint(1, 0, 0, 0), TrajPoint(2, 0, 2, 0))
    val v = Voting.votesLocal(pts, sigma = 1.5)
    assert(math.abs(v((1L, 0L)) - v((2L, 0L))) < 1e-12)
  }

  test("group members get much higher votes than noise objects") {
    val p = TrajGen.Params(nGroups = 1, perGroup = 8, nNoise = 4, tSteps = 30, seed = 2L)
    val labeled = TrajGen.generateLocal(p)
    val local = labeled.map(lp => TrajPoint(lp.objId, lp.t, lp.x, lp.y))
    val v = Voting.votesLocal(local, sigma = 1.5)
    val groupMean = labeled.filter(_.label == 0).map(lp => v((lp.objId, lp.t))).sum /
      labeled.count(_.label == 0)
    val noiseMean = labeled.filter(_.label == -1).map(lp => v((lp.objId, lp.t))).sum /
      math.max(1, labeled.count(_.label == -1))
    assert(groupMean > 1.0, s"group voting too weak: $groupMean")
    assert(groupMean > 5 * (noiseMean + 0.01), s"separation too weak: $groupMean vs $noiseMean")
  }

  test("oracle: Spark voting equals a set-based DuckDB self-join") {
    val sigma = 1.5
    val cut2 = Voting.cutoff(sigma) * Voting.cutoff(sigma)
    val p = TrajGen.Params(nGroups = 2, perGroup = 4, nNoise = 2, tSteps = 10, seed = 9L)
    val pts = TrajGen.points(TrajGen.generate(spark, p))
    val sparkSide = Voting.votes(pts, sigma)
      .select(col("obj_id"), col("t"), round(col("vote"), 3) as "vote")
    val sql =
      s"""
         |SELECT CAST(p.obj_id AS BIGINT) AS obj_id,
         |       CAST(p.t AS BIGINT) AS t,
         |       ROUND(COALESCE(SUM(
         |         CASE WHEN (CAST(p.x AS DOUBLE) - CAST(q.x AS DOUBLE)) * (CAST(p.x AS DOUBLE) - CAST(q.x AS DOUBLE)) +
         |                   (CAST(p.y AS DOUBLE) - CAST(q.y AS DOUBLE)) * (CAST(p.y AS DOUBLE) - CAST(q.y AS DOUBLE)) <= $cut2
         |              THEN EXP(-((CAST(p.x AS DOUBLE) - CAST(q.x AS DOUBLE)) * (CAST(p.x AS DOUBLE) - CAST(q.x AS DOUBLE)) +
         |                         (CAST(p.y AS DOUBLE) - CAST(q.y AS DOUBLE)) * (CAST(p.y AS DOUBLE) - CAST(q.y AS DOUBLE))) / ${2 * sigma * sigma})
         |              ELSE 0 END), 0), 3) AS vote
         |FROM pts p
         |LEFT JOIN pts q
         |  ON p.t = q.t AND p.obj_id <> q.obj_id
         |GROUP BY 1, 2
         |""".stripMargin
    Oracle.assertEquivalent(sparkSide, sql, "pts" -> pts)
  }
}
