package repro.voting

import org.apache.spark.sql.DataFrame
import repro.model.TrajPoint

/** The voting step of NaTS (phase 1 of S2T-Clustering).
  *
  * Each sample of a trajectory is voted by every other object that is alive at
  * the same timestamp, with a Gaussian kernel over their distance:
  * `vote(r, t) = Σ_{o ≠ r} exp(-d(r(t), o(t))² / 2σ²)`, truncated at 3σ
  * (contribution < 0.012 beyond that). The per-sample vote is the
  * representativeness signal the segmentation phase then homogenizes; its
  * physical meaning is "how many objects co-move with r at time t".
  *
  * A vote at time t involves only the samples at t, so there is one kernel,
  * [[votesAt]], over the samples of one timestamp. The Spark path shuffles by
  * timestamp and runs it per partition; the driver path groups by timestamp
  * and runs the same kernel. The set-based evaluation is compared against the
  * tuple-at-a-time [[repro.baselines.NaiveVoting]].
  */
object Voting {

  /** Kernel truncation radius: contributions beyond `3σ` are dropped. */
  def cutoff(sigma: Double): Double = 3.0 * sigma

  /** The votes of the samples of one timestamp: `objs(i)` at `(xs(i), ys(i))`
    * is voted by every sample of another object within the cutoff (a closed
    * ball). Each pair's weight is computed once and added to both sides, in
    * index order, so the result depends only on the order of the input.
    */
  def votesAt(objs: Array[Long], xs: Array[Double], ys: Array[Double],
              sigma: Double): Array[Double] = {
    val cut2 = cutoff(sigma) * cutoff(sigma)
    val twoS2 = 2 * sigma * sigma
    val out = new Array[Double](objs.length)
    var i = 0
    while (i < objs.length) {
      var j = i + 1
      while (j < objs.length) {
        if (objs(i) != objs(j)) {
          val dx = xs(i) - xs(j); val dy = ys(i) - ys(j)
          val d2 = dx * dx + dy * dy
          if (d2 <= cut2) {
            val w = math.exp(-d2 / twoS2)
            out(i) += w; out(j) += w
          }
        }
        j += 1
      }
      i += 1
    }
    out
  }

  /** Group `points` by timestamp and vote each group with [[votesAt]]. Each
    * group is ordered by object id first, so the votes do not depend on the
    * order of `points`.
    */
  private def byTimestamp(points: Array[TrajPoint], sigma: Double): Iterator[(TrajPoint, Double)] =
    points.groupBy(_.t).valuesIterator.flatMap { group =>
      val pts = group.sortBy(_.objId)
      pts.iterator.zip(votesAt(pts.map(_.objId), pts.map(_.x), pts.map(_.y), sigma).iterator)
    }

  /** Distributed voting. Input: (obj_id, t, x, y) resampled on a common time
    * grid. Output: same rows plus a `vote` column (0 for samples nobody is
    * near). One shuffle by `t`; each partition then votes its timestamps
    * locally.
    */
  def votes(points: DataFrame, sigma: Double): DataFrame = {
    require(sigma > 0, s"sigma must be positive, got $sigma")
    val spark = points.sparkSession
    import spark.implicits._
    points.select($"obj_id", $"t", $"x", $"y").as[(Long, Long, Double, Double)]
      .repartition($"t")
      .mapPartitions { rows =>
        val pts = rows.map { case (o, t, x, y) => TrajPoint(o, t, x, y) }.toArray
        byTimestamp(pts, sigma).map { case (p, v) => (p.objId, p.t, p.x, p.y, v) }
      }
      .toDF("obj_id", "t", "x", "y", "vote")
  }

  /** Voting on the driver, keyed by (object, timestamp): the same kernel as
    * [[votes]], for chunk-local re-clustering and small inputs.
    */
  def votesLocal(points: Array[TrajPoint], sigma: Double): Map[(Long, Long), Double] =
    byTimestamp(points, sigma).map { case (p, v) => (p.objId, p.t) -> v }.toMap
}
