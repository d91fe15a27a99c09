package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.baselines.RangeQueryS2T
import repro.clustering.GreedyClustering
import repro.core.{QuTClustering, S2TClustering}
import repro.eval.Quality
import repro.model.{Assignment, LabeledPoint, SubTraj, TrajPoint}
import repro.retratree.{ChunkClustering, ReTraTree, SubChunkClustering, VotedSeries}
import repro.rtree.{Box3D, RTree3D}
import repro.sampling.Sampling
import repro.traj.TrajGen
import repro.voting.{Segmentation, Voting}

import java.io.File
import java.nio.file.Files
import scala.collection.immutable.SortedMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

/** One completed operation: its latency, the window points it answered
  * (queries) and any output check that failed.
  */
final case class Outcome(isQuery: Boolean, ns: Long, points: Long, errors: Seq[String],
                         what: String)

/** A benchmark workload: a MOD, the state built from it in set-up, and a
  * seeded closed-loop operation stream. With a tracer, each step also runs a
  * traced copy of its query that calls the layers' public functions in the
  * program's order and must give the same answer as the untraced call.
  */
trait Workload {
  def name: String
  def config: Seq[(String, Any)]
  /** Fresh state: MOD, cache, index and warm-up. */
  def setup(spark: SparkSession, workDir: File): Unit
  def release(): Unit
  def step(tracer: Option[Tracer]): Seq[Outcome]
  /** Steps per round of the stream; a run stops only between rounds, so every
    * run measures the same mix of operations.
    */
  def roundLength: Int = 4
  /** Measurements taken once the loop has ended (outside any timed op). */
  def finish(): Seq[(String, Double)]
}

object Workload {
  val S2TParams: S2TClustering.Params = S2TClustering.Params(maxReps = 128)

  def apply(name: String, seed: Long): Workload = name match {
    case "s2t"        => new S2TWorkload(seed)
    case "qut"        => new QuTWorkload(seed, withInserts = false)
    case "qut_insert" => new QuTWorkload(seed, withInserts = true)
    case other        => throw new IllegalArgumentException(s"unknown workload '$other'")
  }

  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime(); val r = body; (r, System.nanoTime() - t0)
  }

  /** Points of `mod` per timestamp, for counting a window's points. */
  def pointsPerT(mod: Array[LabeledPoint]): SortedMap[Long, Int] =
    SortedMap(mod.groupBy(_.t).map { case (t, ps) => t -> ps.length }.toSeq: _*)

  def countIn(perT: SortedMap[Long, Int], w: Window): Long =
    perT.range(w.w0, w.w1).values.map(_.toLong).sum
}

/** `s2t`: the range query → R-tree → S2T pipeline over seeded windows of 1, 2,
  * 4 and 8 chunks. Every op votes, segments, samples and assigns; none touches
  * the ReTraTree.
  */
final class S2TWorkload(seed: Long) extends Workload {
  val name = "s2t"
  val stepsPerChunk = 20
  val nChunks = 8
  val mod: TrajGen.Params = TrajGen.Params(nGroups = 8, perGroup = 10, nNoise = 20,
    tSteps = nChunks * stepsPerChunk, dt = 10L, switchFrac = 0.2, groupSpan = 0.5, seed = seed)
  val tau: Long = stepsPerChunk * mod.dt
  private val p = Workload.S2TParams
  private val local = TrajGen.generateLocal(mod)
  private val truth = local.map(lp => (lp.objId, lp.t) -> lp.label).toMap
  private val windows = Streams.s2tWindows(seed, tau, mod.dt, nChunks)
  private val voteRnd = new Random(seed ^ 0x5eedL)
  private val ariPairs = mutable.ArrayBuffer.empty[(Int, Int)]
  private var df: DataFrame = _
  private var nOps = 0

  /** Two permutations of the window sizes: S2T ops vary by about ±10 % from
    * one op to the next, so a run's medians need at least eight of them.
    */
  override def roundLength: Int = 8

  def config: Seq[(String, Any)] = Seq("mod" -> mod.toString, "tau_s" -> tau,
    "chunks" -> nChunks, "s2t_params" -> p.toString,
    "stream" -> "rounds of two seeded permutations of 1, 2, 4, 8-chunk windows at seeded offsets")

  def setup(spark: SparkSession, workDir: File): Unit = {
    df = TrajGen.points(TrajGen.generate(spark, mod)).cache()
    df.count()
    RangeQueryS2T.query(df, 0L, nChunks * tau, p) // warm-up on the largest window
  }

  def release(): Unit = if (df != null) df.unpersist()

  private def windowPoints(w: Window): Array[TrajPoint] =
    local.collect { case lp if lp.t >= w.w0 && lp.t < w.w1 => TrajPoint(lp.objId, lp.t, lp.x, lp.y) }

  def step(tracer: Option[Tracer]): Seq[Outcome] = {
    val w = windows.next()
    val opId = nOps
    nOps += 1
    val (r, ns) = Workload.timed(RangeQueryS2T.query(df, w.w0, w.w1, p))
    val pts = windowPoints(w)
    val ts = pts.map(_.t).distinct.sorted
    val voteTs = Seq.fill(3)(ts(voteRnd.nextInt(ts.length))).distinct
    val s = r.s2t
    val errs = mutable.ArrayBuffer.empty[String]
    errs ++= Checks.s2t(pts, s.subs, s.reps, s.assignments, p.sigma, voteTs)
    if (r.rtree.size != pts.map(_.objId).distinct.length)
      errs += s"R-tree holds ${r.rtree.size} boxes for ${pts.map(_.objId).distinct.length} objects"
    tracer.foreach { tr =>
      val (subs, reps, as) = traced(tr, w, opId)
      if (S2TWorkload.signature(subs, reps, as) != S2TWorkload.signature(s.subs, s.reps, s.assignments))
        errs += "traced S2T differs from RangeQueryS2T.query"
    }
    val subByKey = s.subs.map(x => x.key -> x).toMap
    for (a <- s.assignments; t <- subByKey(a.objId -> a.subId).ts)
      ariPairs += truth((a.objId, t)) -> (opId * 1000 + a.clusterId + 1)
    Seq(Outcome(isQuery = true, ns, pts.length, errs.toSeq, w.toString))
  }

  /** RangeQueryS2T.query and S2TClustering.run, one span per layer call. */
  private def traced(tr: Tracer, w: Window, opId: Int)
      : (Array[SubTraj], Array[SubTraj], Array[Assignment]) = tr.span("op.s2t", opId) {
    val spark = df.sparkSession
    import spark.implicits._
    val window = tr.span("range.query") {
      val x = df.where(col("t") >= w.w0 && col("t") < w.w1).cache()
      tr.count("rows_out", x.count().toDouble)
      x
    }
    tr.span("rtree.bulkLoad") {
      val boxes = window.groupBy("obj_id")
        .agg(min("x") as "minx", max("x") as "maxx", min("y") as "miny", max("y") as "maxy",
             min("t") as "mint", max("t") as "maxt")
        .as[(Long, Double, Double, Double, Double, Long, Long)].collect()
      RTree3D.bulkLoad(boxes.zipWithIndex.map { case ((_, x0, x1, y0, y1, t0, t1), i) =>
        (Box3D(x0, x1, y0, y1, t0, t1), i) }.toIndexedSeq)
      tr.count("boxes", boxes.length.toDouble)
    }
    val voted = tr.span("voting.votes") {
      val v = Voting.votes(window, p.sigma).persist(StorageLevel.MEMORY_AND_DISK)
      tr.count("rows_in", v.count().toDouble)
      v
    }
    val subs = tr.span("segmentation.segmentTrajectories") {
      val r = Segmentation.segmentTrajectories(voted, p.segmentation).collect()
      tr.count("subtrajs", r.length.toDouble)
      r
    }
    voted.unpersist()
    val votes = subs.flatMap(_.votes)
    tr.count("vote_sum", votes.sum)
    tr.count("zero_votes", votes.count(_ == 0.0).toDouble)
    tr.count("samples", votes.length.toDouble)
    val reps = tr.span("sampling.select") {
      val r = Sampling.select(subs, p.sampling)
      tr.count("candidates", subs.length.toDouble); tr.count("reps", r.length.toDouble)
      r
    }
    val as = tr.span("clustering.assign") {
      val r = GreedyClustering.assign(spark.createDataset(subs.toIndexedSeq), reps, p.eps,
                                      p.minOverlapFrac).collect()
      tr.count("distance_evals", subs.length.toDouble * reps.length)
      tr.count("subs", subs.length.toDouble)
      tr.count("outliers", r.count(_.clusterId == Assignment.Outlier).toDouble)
      r
    }
    window.unpersist()
    (subs, reps, as)
  }

  def finish(): Seq[(String, Double)] = {
    val ari = Quality.ari(ariPairs.toSeq)
    ariPairs.clear()
    Seq("ari" -> ari)
  }
}

object S2TWorkload {
  /** What two S2T answers must agree on: the segmentation, the sampling set
    * in order, and the assignment of every sub-trajectory.
    */
  def signature(subs: Array[SubTraj], reps: Array[SubTraj], as: Array[Assignment]): Seq[Any] =
    Seq(subs.map(s => (s.objId, s.subId, s.tStart, s.tEnd, s.size)).sorted.toSeq,
        reps.map(_.key).toSeq,
        as.map(a => (a.objId, a.subId, a.clusterId)).sorted.toSeq)
}

/** `qut` and `qut_insert`: QuT queries over a ReTraTree built in set-up, on
  * seeded windows of which three in four are unaligned. `qut_insert` puts one
  * `insertTrajectory` between queries.
  */
final class QuTWorkload(seed: Long, withInserts: Boolean) extends Workload {
  val name: String = if (withInserts) "qut_insert" else "qut"
  val stepsPerChunk = 40
  val nChunks = 6
  val mod: TrajGen.Params = TrajGen.Params(nGroups = 8, perGroup = 10, nNoise = 20,
    tSteps = nChunks * stepsPerChunk, dt = 10L, switchFrac = 0.2, groupSpan = 0.5, seed = seed)
  val tau: Long = stepsPerChunk * mod.dt
  private val treeParams = ReTraTree.Params(tau = tau, s2t = Workload.S2TParams)
  /** The warm-up inserts hold `reclusterThreshold` - 1 walks, which fill the
    * outlier buffers of the chunks where no walk piece matched, so the first
    * measured insert, a walk, re-clusters those chunks: each run measures one
    * re-cluster round, then lane-mate inserts.
    */
  val warmupInserts: Int = 4 * (treeParams.reclusterThreshold - 1)
  private val local = TrajGen.generateLocal(mod)
  private val perT = Workload.pointsPerT(local)
  private var windows: Iterator[Window] = Iterator.empty
  private var inserts: Iterator[Array[TrajPoint]] = Iterator.empty
  private var df: DataFrame = _
  private var nOps = 0
  private var tree: ReTraTree = _
  private val builds = mutable.ArrayBuffer.empty[(Long, ReTraTree.BuildStats)]
  private var appended = 0L
  private var reclusters = 0L

  def config: Seq[(String, Any)] = Seq("mod" -> mod.toString, "tau_s" -> tau,
    "chunks" -> nChunks, "tree_params" -> treeParams.toString,
    "stream" -> ("rounds of one aligned and three unaligned windows, seeded lengths" +
      (if (withInserts) "; one insert after each query: an off-lane walk, then three lane-mates, repeated" else "")),
    "warmup_inserts" -> (if (withInserts) warmupInserts else 0))

  def setup(spark: SparkSession, workDir: File): Unit = {
    df = TrajGen.points(TrajGen.generate(spark, mod)).cache()
    df.count()
    val dir = Files.createTempDirectory(workDir.toPath, "tree").toString
    val ((t, stats), ns) = Workload.timed(ReTraTree.build(df, treeParams, dir))
    tree = t
    builds += ns -> stats
    // The streams restart with every set-up: each run measures the same ops.
    windows = Streams.qutWindows(seed, tau, mod.dt, nChunks)
    inserts = Streams.inserts(seed, local, mod, tau, local.map(_.objId).max + 1)
    QuTClustering.query(tree, tau / 2, tau / 2 + tau) // warm-up: load + re-cluster
    if (withInserts) (0 until warmupInserts).foreach(_ => tree.insertTrajectory(inserts.next()))
  }

  def release(): Unit = if (df != null) df.unpersist()

  def step(tracer: Option[Tracer]): Seq[Outcome] = {
    val w = windows.next()
    val opId = nOps
    nOps += 1
    val (r, ns) = Workload.timed(QuTClustering.query(tree, w.w0, w.w1))
    val errs = mutable.ArrayBuffer.empty[String] ++ Checks.qut(tree, w, r)
    tracer.foreach { tr =>
      errs ++= traced(tr, w, opId, r)
    }
    val q = Outcome(isQuery = true, ns, Workload.countIn(perT, w), errs.toSeq, w.toString)
    if (!withInserts) Seq(q)
    else Seq(q, insert(tracer))
  }

  private def insert(tracer: Option[Tracer]): Outcome = {
    val pts = inserts.next()
    val before = tree.chunks.map { case (c, cc) => c -> (cc.appended.length, cc.pendingOutliers.length) }
    val (_, ns) = Workload.timed(tracer match {
      case Some(tr) => tr.span("op.insert", nOps) {
        tr.span("retratree.insertTrajectory")(tree.insertTrajectory(pts))
      }
      case None => tree.insertTrajectory(pts)
    })
    // A re-cluster drains the chunk's outlier buffer.
    var reclustered = 0
    var added = 0
    for ((c, cc) <- tree.chunks) {
      val (a0, p0) = before.getOrElse(c, (0, 0))
      added += cc.appended.length - a0
      if (cc.pendingOutliers.length < p0) reclustered += 1
    }
    appended += added
    reclusters += reclustered
    for (tr <- tracer; s <- tr.spans.lastOption) {
      s.counters("appended") = added.toDouble
      s.counters("reclusters") = reclustered.toDouble
    }
    Outcome(isQuery = false, ns, 0L, Nil, s"insert ${pts.length} points")
  }

  /** QuTClustering.query, one span per layer call. The merge runs as
    * `QuTClustering.query` over a tree holding the per-chunk clusterings just
    * computed, on the chunk-aligned cover of W: every chunk is then reused and
    * only the merge does work. Returns the disagreements with `expected`.
    */
  private def traced(tr: Tracer, w: Window, opId: Int, expected: QuTClustering.Result): Seq[String] = {
    val c0 = math.floorDiv(w.w0, tau)
    val c1 = math.floorDiv(w.w1 - 1, tau)
    val recomputed = mutable.ArrayBuffer.empty[(Long, Array[VotedSeries], Vector[SubChunkClustering])]
    val merged = tr.span("op.qut", opId) {
      val perChunk = mutable.ArrayBuffer.empty[(Long, Vector[SubChunkClustering])]
      for (c <- c0 to c1; cc <- tree.chunks.get(c)) {
        if (w.w0 <= tree.chunkStart(c) && tree.chunkEnd(c) <= w.w1)
          tr.span("qut.reuse") { perChunk += c -> cc.subChunks }
        else tr.span("qut.recompute") {
          val lo = math.max(w.w0, tree.chunkStart(c))
          val hi = math.min(w.w1, tree.chunkEnd(c))
          val series = tr.span("retratree.loadChunk") {
            val s = tree.loadChunk(c)
            tr.count("rows", s.map(_.ts.length).sum.toDouble)
            s
          }
          val clipped = series.flatMap { vs =>
            val keep = vs.ts.indices.filter(i => vs.ts(i) >= lo && vs.ts(i) < hi).toArray
            if (keep.isEmpty) None
            else Some(vs.copy(ts = keep.map(vs.ts), xs = keep.map(vs.xs),
                              ys = keep.map(vs.ys), votes = keep.map(vs.votes)))
          }
          val scs = tr.span("retratree.clusterSeries")(clusterSeries(tr, c, clipped))
          recomputed += ((c, clipped, scs))
          perChunk += c -> scs
        }
      }
      tr.span("qut.merge") {
        val t = new ReTraTree(tree.params, tree.dataDir, tree.spark)
        t.chunks = SortedMap(perChunk.map { case (c, scs) =>
          val cc = new ChunkClustering(c); cc.subChunks = scs; c -> cc }.toSeq: _*)
        QuTClustering.query(t, c0 * tau, (c1 + 1) * tau)
      }
    }
    val errs = mutable.ArrayBuffer.empty[String]
    for ((c, clipped, scs) <- recomputed
         if QuTWorkload.signature(scs) != QuTWorkload.signature(tree.clusterSeries(c, clipped)))
      errs += s"traced clusterSeries differs on chunk $c"
    if (QuTWorkload.signature(merged) != QuTWorkload.signature(expected))
      errs += "traced QuT differs from QuTClustering.query"
    errs.toSeq
  }

  /** ReTraTree.clusterSeries: segmentation, then SaCO per lifespan sub-chunk. */
  private def clusterSeries(tr: Tracer, c: Long, series: Array[VotedSeries]): Vector[SubChunkClustering] = {
    val p = tree.params.s2t
    val subs = tr.span("segmentation.segmentOne") {
      val r = series.flatMap(vs =>
        Segmentation.segmentOne(vs.objId, vs.ts, vs.xs, vs.ys, vs.votes, p.segmentation))
      tr.count("subtrajs", r.length.toDouble)
      r
    }
    subs.groupBy(s => tree.subChunkOf(c, s.tStart)).toVector.sortBy(_._1).map {
      case (scId, scSubs) =>
        val reps = tr.span("sampling.select") {
          val r = Sampling.select(scSubs, p.sampling)
          tr.count("candidates", scSubs.length.toDouble); tr.count("reps", r.length.toDouble)
          r
        }
        val as = tr.span("clustering.assignLocal") {
          val r = GreedyClustering.assignLocal(scSubs, reps, p.eps, p.minOverlapFrac)
          tr.count("distance_evals", scSubs.length.toDouble * reps.length)
          tr.count("subs", scSubs.length.toDouble)
          tr.count("outliers", r.count(_.clusterId == Assignment.Outlier).toDouble)
          r
        }
        SubChunkClustering(scId, reps, as)
    }
  }

  def finish(): Seq[(String, Double)] = {
    val (_, last) = builds.last
    val level4 = Files.walk(new File(tree.dataDir).toPath).iterator().asScala
      .filter(_.toString.endsWith(".parquet")).map(Files.size).sum
    val horizonChunks = tree.chunks.lastKey + 1
    val full = QuTClustering.query(tree, 0L, horizonChunks * tau)
    val level3 = tree.chunks.values.map(_.subChunks.map(
      _.assignments.count(_.clusterId != Assignment.Outlier)).sum).sum
    val appendedNow = tree.chunks.values.map(_.appended.length).sum
    Seq(
      "build_s" -> Stats.median(builds.map(_._1 / 1e9).toSeq),
      "storage_amp" -> level4.toDouble / (local.length * 32.0),
      "retratree.build_voting_ms" -> last.votingMs.toDouble,
      "retratree.build_write_ms" -> last.writeMs.toDouble,
      "retratree.build_cluster_ms" -> last.clusterMs.toDouble,
      "retratree.level4_bytes" -> level4.toDouble,
      "retratree.chunks" -> tree.chunks.size.toDouble,
      "retratree.appended" -> appended.toDouble,
      "retratree.reclusters" -> reclusters.toDouble,
      "retratree.inserted_unseen" -> (level3 + appendedNow - full.clusters.map(_.nMembers).sum).toDouble,
    )
  }
}

object QuTWorkload {
  def signature(scs: Vector[SubChunkClustering]): Seq[Any] = scs.map(sc =>
    (sc.subChunkId, sc.reps.map(_.key).toSeq, sc.assignments.map(a => (a.objId, a.subId, a.clusterId)).toSeq))

  def signature(r: QuTClustering.Result): Seq[Any] =
    Seq(r.clusters.map(c => (c.id, c.reps.map(_.key).toSeq, c.nMembers)).toSeq,
        r.outliers.map(o => (o.objId, o.subId)).sorted.toSeq)
}
