package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.traj.TrajGen

class StreamsSpec extends AnyFunSuite {
  private val tau = 200L
  private val dt = 10L

  test("s2t windows: same seed, same stream; another seed, another stream") {
    def take(seed: Long) = Streams.s2tWindows(seed, tau, dt, 8).take(40).toList
    assert(take(1) == take(1))
    assert(take(1) != take(2))
  }

  test("s2t windows: every round holds 1, 2, 4 and 8 chunks, inside the horizon") {
    val ws = Streams.s2tWindows(3, tau, dt, 8).take(40).toList
    ws.grouped(4).foreach(r => assert(r.map(_.chunks).sorted == List(1, 2, 4, 8)))
    ws.foreach { w =>
      assert(w.w0 >= 0 && w.w1 <= 8 * tau && w.w1 - w.w0 == w.chunks * tau && w.w0 % dt == 0)
    }
  }

  test("qut windows: seeded, one aligned in four, lengths cycle through every size") {
    def take(seed: Long) = Streams.qutWindows(seed, tau, dt, 6).take(80).toList
    assert(take(5) == take(5))
    assert(take(5) != take(6))
    take(5).grouped(4).foreach(r => assert(r.count(_.aligned) == 1))
    take(5).foreach { w =>
      assert(w.w0 >= 0 && w.w1 <= 6 * tau && w.w1 - w.w0 == w.chunks * tau)
      assert(w.aligned == (w.w0 % tau == 0))
    }
    val (al, un) = take(5).partition(_.aligned)
    assert(al.take(6).map(_.chunks).sorted == (1 to 6).toList)
    assert(un.take(15).map(_.chunks).sorted == (1 to 5).flatMap(k => List(k, k, k)).toList)
  }

  test("inserts: seeded, a whole-horizon walk then three lane-mates, fresh ids") {
    val p = TrajGen.Params(nGroups = 3, perGroup = 10, nNoise = 5, tSteps = 80, switchFrac = 0.2, seed = 9)
    val mod = TrajGen.generateLocal(p)
    def take(seed: Long) = Streams.inserts(seed, mod, p, tau, 1000L).take(12).toList
    def flat(xs: List[Array[repro.model.TrajPoint]]) = xs.map(_.toList)
    assert(flat(take(1)) == flat(take(1)))
    assert(flat(take(1)) != flat(take(2)))
    take(1).zipWithIndex.foreach { case (pts, i) =>
      assert(pts.nonEmpty && pts.forall(_.objId == 1000L + i))
      assert(pts.forall(pt => pt.t % p.dt == 0 && pt.t >= 0 && pt.t < p.horizon))
      if (i % 4 == 0) assert(pts.length == p.tSteps)
      else assert(pts.length <= 2 * tau / p.dt)
    }
  }
}
