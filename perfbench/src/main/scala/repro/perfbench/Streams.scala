package repro.perfbench

import repro.model.{LabeledPoint, TrajPoint}
import repro.traj.TrajGen

import scala.util.Random

/** A query window W = [w0, w1), `chunks` chunk-lengths long. */
final case class Window(w0: Long, w1: Long, chunks: Int, aligned: Boolean)

/** The seeded operation streams. Each is a pure function of its seed and the
  * MOD parameters, so the same seed replays the same operations.
  */
object Streams {

  /** `s2t`: rounds of a seeded permutation of 1, 2, 4 and 8 chunks (lengths
    * capped at the horizon), each at a seeded start on the time grid. Rounds
    * keep every run's mix of window sizes the same.
    */
  def s2tWindows(seed: Long, tau: Long, dt: Long, nChunks: Int): Iterator[Window] = {
    val rnd = new Random(seed)
    val horizon = nChunks * tau
    val sizes = Seq(1, 2, 4, 8).map(math.min(_, nChunks))
    Iterator.continually(rnd.shuffle(sizes)).flatten.map { k =>
      val slack = (horizon - k * tau) / dt
      val w0 = if (slack <= 0) 0L else rnd.nextLong(slack + 1) * dt
      Window(w0, w0 + k * tau, k, w0 % tau == 0)
    }
  }

  /** `qut`: rounds of one chunk-aligned window and three unaligned ones.
    * Lengths cycle through seeded permutations of 1..all chunks (aligned) and
    * 1..all-1 chunks (unaligned, which must fit a partial chunk at each end),
    * so every run sees the same mix of lengths.
    */
  def qutWindows(seed: Long, tau: Long, dt: Long, nChunks: Int): Iterator[Window] = {
    require(nChunks >= 2, "unaligned windows need at least two chunks")
    val rnd = new Random(seed)
    val stepsPerChunk = tau / dt
    def lengths(max: Int) = Iterator.continually(rnd.shuffle((1 to max).toList)).flatten
    val alignedK = lengths(nChunks)
    val unalignedK = lengths(nChunks - 1)
    def aligned(): Window = {
      val k = alignedK.next()
      val c = rnd.nextInt(nChunks - k + 1)
      Window(c * tau, (c + k) * tau, k, aligned = true)
    }
    def unaligned(): Window = {
      val k = unalignedK.next()
      val c = rnd.nextInt(nChunks - k)
      val w0 = c * tau + (1 + rnd.nextLong(stepsPerChunk - 1)) * dt
      Window(w0, w0 + k * tau, k, aligned = false)
    }
    Iterator.continually(rnd.shuffle(Seq(true, false, false, false))).flatten
      .map(a => if (a) aligned() else unaligned())
  }

  /** `qut_insert`: trajectories to insert after the build. Every fourth one,
    * from the first, is an off-lane walk; the rest are lane-mates. A lane-mate
    * is a non-diverging group member's path over one or two chunks, shifted
    * within the lane and re-jittered; it matches an existing representative.
    * A walk is a smooth random walk over the whole horizon; it matches
    * nothing, so it adds a piece to every chunk's outlier buffer. Object ids
    * start at `firstId`.
    */
  def inserts(seed: Long, mod: Array[LabeledPoint], p: TrajGen.Params, tau: Long,
              firstId: Long): Iterator[Array[TrajPoint]] = {
    val rnd = new Random(seed)
    val byObj = mod.groupBy(_.objId).map { case (o, ps) => o -> ps.sortBy(_.t) }
    val steady = for {
      g <- 0 until p.nGroups
      m <- (p.perGroup * p.switchFrac).toInt until p.perGroup
    } yield g.toLong * p.perGroup + m
    require(steady.nonEmpty, "the MOD has no steady group members to copy")
    Iterator.from(0).map { i =>
      val id = firstId + i
      if (i % 4 != 0) {
        val path = byObj(steady(rnd.nextInt(steady.length)))
        val span = (1 + rnd.nextInt(2)) * tau
        val t0 = path.head.t + rnd.nextLong(math.max(1L, path.last.t - path.head.t - span + 1))
        val (ox, oy) = (rnd.nextGaussian() * p.laneWidth / 2, rnd.nextGaussian() * p.laneWidth / 2)
        path.filter(lp => lp.t >= t0 && lp.t < t0 + span).map(lp =>
          TrajPoint(id, lp.t, lp.x + ox + rnd.nextGaussian() * p.jitter,
                    lp.y + oy + rnd.nextGaussian() * p.jitter))
      } else {
        var x = rnd.nextDouble() * p.extent; var y = rnd.nextDouble() * p.extent
        var th = rnd.nextDouble() * 2 * math.Pi
        Array.tabulate(p.tSteps) { s =>
          if (s > 0) {
            th += rnd.nextGaussian() * 0.3
            x += math.cos(th) * p.speed * p.dt / 10.0; y += math.sin(th) * p.speed * p.dt / 10.0
          }
          TrajPoint(id, s * p.dt, x, y)
        }
      }
    }
  }
}
