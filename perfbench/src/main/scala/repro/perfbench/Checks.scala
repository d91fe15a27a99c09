package repro.perfbench

import repro.core.QuTClustering
import repro.model.{Assignment, SubTraj, TrajPoint}
import repro.retratree.ReTraTree
import repro.voting.Voting

import scala.collection.mutable

/** Output checks run after every operation. Each returns the problems it
  * found; an empty result means the output is correct.
  */
object Checks {

  /** An S2T answer over the window whose points are `points`: the
    * sub-trajectories partition the points exactly (no `(obj_id, t)` twice,
    * positions unchanged), every sub-trajectory has exactly one assignment
    * with a cluster id in [-1, reps), and the votes at `voteTs` match
    * [[votes]].
    */
  def s2t(points: Array[TrajPoint], subs: Array[SubTraj], reps: Array[SubTraj],
          assignments: Array[Assignment], sigma: Double, voteTs: Seq[Long]): Seq[String] = {
    val errs = mutable.ArrayBuffer.empty[String]
    val pos = points.map(p => (p.objId, p.t) -> (p.x, p.y)).toMap
    val seen = mutable.HashSet.empty[(Long, Long)]
    for (s <- subs; i <- s.ts.indices) {
      val k = (s.objId, s.ts(i))
      pos.get(k) match {
        case None => errs += s"sample $k of sub ${s.key} is not in the window"
        case Some(xy) =>
          if (!seen.add(k)) errs += s"sample $k appears in two sub-trajectories"
          if (xy != ((s.xs(i), s.ys(i)))) errs += s"sample $k moved to (${s.xs(i)}, ${s.ys(i)})"
      }
    }
    if (seen.size != pos.size) errs += s"sub-trajectories cover ${seen.size} of ${pos.size} points"
    val subKeys = subs.map(_.key)
    if (subKeys.distinct.length != subKeys.length) errs += "duplicate sub-trajectory keys"
    val perSub = assignments.groupBy(a => (a.objId, a.subId)).map { case (k, as) => k -> as.length }
    if (perSub.keySet != subKeys.toSet || perSub.values.exists(_ != 1))
      errs += s"${assignments.length} assignments for ${subs.length} sub-trajectories"
    assignments.find(a => a.clusterId < Assignment.Outlier || a.clusterId >= reps.length)
      .foreach(a => errs += s"cluster id ${a.clusterId} outside [-1, ${reps.length})")
    errs ++= votes(points, subs, sigma, voteTs)
    errs.take(5).toSeq
  }

  /** The vote oracle: at each timestamp in `ts`, the votes carried by the
    * sub-trajectories equal `Voting.votesLocal` over that timestamp's points.
    */
  def votes(points: Array[TrajPoint], subs: Array[SubTraj], sigma: Double,
            ts: Seq[Long]): Seq[String] = {
    val want = ts.toSet
    val got = (for (s <- subs; i <- s.ts.indices if want(s.ts(i)))
      yield (s.objId, s.ts(i)) -> s.votes(i)).toMap
    ts.flatMap { t =>
      val oracle = Voting.votesLocal(points.filter(_.t == t), sigma)
      oracle.collect {
        case (k, v) if !got.get(k).exists(g => math.abs(g - v) <= 1e-9 * math.max(1.0, math.abs(v))) =>
          s"vote at $k is ${got.get(k)}, oracle $v"
      }
    }.take(5)
  }

  /** A QuT answer over `w`: reused + recomputed chunks equal the data-holding
    * chunks that intersect W and at most two are recomputed; every
    * representative lies within W; on an aligned window the member total
    * equals the level-3 assignment count of the covered chunks.
    */
  def qut(tree: ReTraTree, w: Window, r: QuTClustering.Result): Seq[String] = {
    val errs = mutable.ArrayBuffer.empty[String]
    val c0 = math.floorDiv(w.w0, tree.params.tau)
    val c1 = math.floorDiv(w.w1 - 1, tree.params.tau)
    val holding = tree.chunks.keys.count(c => c >= c0 && c <= c1)
    val t = r.timings
    if (t.reusedChunks + t.recomputedChunks != holding)
      errs += s"reused ${t.reusedChunks} + recomputed ${t.recomputedChunks} != $holding chunks in W"
    if (t.recomputedChunks > 2) errs += s"recomputed ${t.recomputedChunks} chunks"
    for (c <- r.clusters; rep <- c.reps if rep.tStart < w.w0 || rep.tEnd >= w.w1)
      errs += s"representative ${rep.key} spans [${rep.tStart}, ${rep.tEnd}] outside W"
    if (w.aligned) {
      val level3 = (c0 to c1).flatMap(tree.chunks.get)
        .map(_.subChunks.map(_.assignments.count(_.clusterId != Assignment.Outlier)).sum).sum
      val members = r.clusters.map(_.nMembers).sum
      if (members != level3) errs += s"aligned window counts $members members, level 3 holds $level3"
    }
    errs.take(5).toSeq
  }
}
