package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.model.{Assignment, SubTraj, TrajPoint}
import repro.voting.Voting

class ChecksSpec extends AnyFunSuite {
  private val sigma = 1.5

  /** Three objects over four timestamps, two of them a close pair. */
  private val points: Array[TrajPoint] = (for {
    t <- 0L until 40L by 10L
    (o, dx) <- Seq(0L -> 0.0, 1L -> 1.0, 2L -> 50.0)
  } yield TrajPoint(o, t, t.toDouble + dx, 0.0)).toArray

  /** One sub-trajectory per object carrying the exact votes. */
  private def subs(corrupt: Boolean = false): Array[SubTraj] = {
    val v = Voting.votesLocal(points, sigma)
    points.groupBy(_.objId).toArray.sortBy(_._1).map { case (o, ps) =>
      val s = ps.sortBy(_.t)
      val votes = s.map(p => v((o, p.t)))
      if (corrupt && o == 1L) votes(2) += 0.25
      SubTraj(o, 0, s.map(_.t), s.map(_.x), s.map(_.y), votes)
    }
  }

  private def assigned(ss: Array[SubTraj]) = ss.map(s => Assignment(s.objId, s.subId, 0, 0.0))

  test("the vote oracle accepts exact votes") {
    assert(Checks.votes(points, subs(), sigma, Seq(0L, 20L)).isEmpty)
    val ss = subs()
    assert(Checks.s2t(points, ss, ss.take(1), assigned(ss), sigma, Seq(10L, 20L)).isEmpty)
  }

  test("the vote oracle flags a corrupted vote at a checked timestamp only") {
    val bad = Checks.votes(points, subs(corrupt = true), sigma, Seq(20L))
    assert(bad.length == 1 && bad.head.contains("(1,20)"))
    assert(Checks.votes(points, subs(corrupt = true), sigma, Seq(0L, 30L)).isEmpty)
  }

  test("a dropped vote column (all zero) is flagged") {
    val zeroed = subs().map(s => s.copy(votes = Array.fill(s.size)(0.0)))
    assert(Checks.votes(points, zeroed, sigma, Seq(10L)).nonEmpty)
  }

  test("the partition check flags a lost and a duplicated sample") {
    val ss = subs()
    val lost = ss.updated(0, ss(0).copy(ts = ss(0).ts.take(3), xs = ss(0).xs.take(3),
                                        ys = ss(0).ys.take(3), votes = ss(0).votes.take(3)))
    assert(Checks.s2t(points, lost, ss.take(1), assigned(lost), sigma, Nil).exists(_.contains("cover")))
    val dup = ss :+ ss(2).copy(subId = 1)
    assert(Checks.s2t(points, dup, ss.take(1), assigned(dup), sigma, Nil).exists(_.contains("two")))
  }

  test("the assignment check flags a missing assignment and an out-of-range cluster") {
    val ss = subs()
    assert(Checks.s2t(points, ss, ss.take(1), assigned(ss).drop(1), sigma, Nil).nonEmpty)
    val wrong = assigned(ss).updated(0, Assignment(0L, 0, 3, 0.0))
    assert(Checks.s2t(points, ss, ss.take(1), wrong, sigma, Nil).exists(_.contains("cluster id")))
  }
}
