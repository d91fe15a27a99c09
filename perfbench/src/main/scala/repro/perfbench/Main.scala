package repro.perfbench

import repro.jobs.JobUtil

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import scala.collection.mutable

/** The benchmark program: one client, closed loop.
  *
  * {{{
  * Main --workload <s2t|qut|qut_insert> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * Sets up `Setups` times (MOD, cache, index, warm-up; `setup_s` is the
  * median; the first also starts the session), then runs whole rounds of the
  * workload's operations until they have used `--seconds` of program time.
  * Every operation's output is checked. The last stdout line is the result:
  * end-to-end metrics with `--trace 0`, per-layer metrics from a traced run
  * with `--trace 1`. The full result, with the configuration and (traced) the
  * spans, goes to `<out>/<workload>-seed<n>-trace<t>.json`.
  */
object Main {
  val Setups = 3

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: File)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val seconds = need("seconds").toInt
    require(seconds >= 1, s"--seconds must be >= 1, got $seconds")
    Args(need("workload"), need("seed").toLong, seconds, trace == "1", new File(need("out")))
  }

  private def heapUsedMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    System.gc(); Thread.sleep(100); System.gc()
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def main(argv: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val args = parse(argv)
    val w = Workload(args.workload, args.seed)
    val work = new File(args.out, s"work-${w.name}-${args.seed}")
    work.mkdirs()

    // One session for the run: the first set-up pays its start (and the JVM's
    // cold start); every set-up rebuilds the workload's state from scratch.
    val spark = JobUtil.session(s"perfbench-${w.name}")
    val setupS = (0 until Setups).map { i =>
      val s0 = if (i == 0) t0 else { w.release(); System.nanoTime() }
      w.setup(spark, work)
      (System.nanoTime() - s0) / 1e9
    }
    val sc = spark.sparkContext
    val cores = sc.defaultParallelism
    val config = Seq(
      "workload" -> w.name, "seed" -> args.seed, "run_seconds" -> args.seconds, "trace" -> args.trace,
      "nproc" -> Runtime.getRuntime.availableProcessors, "cores" -> cores,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "java" -> System.getProperty("java.version"), "spark_version" -> spark.version,
      "master" -> sc.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "broadcast_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "setups" -> Setups) ++ w.config

    val attr = new SparkAttribution
    val tracer = if (args.trace) { sc.addSparkListener(attr); Some(new Tracer(Some(sc))) } else None
    val outcomes = mutable.ArrayBuffer.empty[Outcome]
    var busyNs = 0L
    val loopStart = System.nanoTime()
    // Program time, not wall time, bounds the loop: output checks do not
    // shorten the measurement. The wall cap only stops a run whose checks
    // take far longer than its operations.
    var steps = 0
    while (steps % w.roundLength != 0 || (busyNs < args.seconds * 1000000000L &&
           System.nanoTime() - loopStart < 4L * args.seconds * 1000000000L)) {
      val nSpans = tracer.map(_.spans.length).getOrElse(0)
      val s0 = System.nanoTime()
      val outs =
        try w.step(tracer)
        catch { case e: Exception =>
          Seq(Outcome(isQuery = true, System.nanoTime() - s0, 0L, Seq(e.toString), "step threw")) }
      val tracedNs = tracer.map(_.spans.drop(nSpans).filter(s => s.parent == -1 && s.name != "op.insert")
        .map(_.durNs).sum).getOrElse(0L)
      busyNs += outs.map(_.ns).sum + tracedNs
      outcomes ++= outs
      steps += 1
    }
    if (args.trace) attr.awaitQuiet()
    val finish = w.finish()

    val queries = outcomes.filter(_.isQuery).toSeq
    val inserts = outcomes.filterNot(_.isQuery).toSeq
    val qMs = queries.map(_.ns / 1e6)
    val qTail = Stats.tail(qMs)
    val failed = outcomes.count(_.errors.nonEmpty)
    outcomes.filter(_.errors.nonEmpty).take(5).foreach(o =>
      Console.err.println(s"[perfbench] failed op: ${o.errors.mkString("; ")}"))
    val heapMb = heapUsedMb()

    val e2e = Seq(
      "setup_s" -> Stats.median(setupS),
      "query_p50_ms" -> Stats.median(qMs),
      "query_tail_ms" -> qTail.value,
      "ops_per_s" -> outcomes.length / (outcomes.map(_.ns).sum / 1e9),
      "points_per_s" -> queries.map(_.points).sum / (queries.map(_.ns).sum / 1e9),
      "heap_retained_mb" -> heapMb)
    val insTail = if (inserts.isEmpty) None else Some(Stats.tail(inserts.map(_.ns / 1e3)))
    val workloadOnly = finish.filter { case (k, _) => Report.WorkloadOnly.exists(_.name == k) } ++
      insTail.toSeq.flatMap(t => Seq("insert_p50_us" -> Stats.median(inserts.map(_.ns / 1e3)),
                                     "insert_tail_us" -> t.value))
    val layers = tracer.map(tr => Report.layers(tr, attr, cores, qMs)).getOrElse(Nil)
    val perLayerValues = (finish ++ workloadOnly ++ layers).toMap
    val perLayer = Report.PerLayer.map(m => m.name -> perLayerValues.getOrElse(m.name, 0.0))
    val tails = Seq("query_tail" -> qTail) ++ insTail.map("insert_tail" -> _)

    def line(m: Metric, v: Double) = f"[perfbench] ${m.name}%-34s ${v}%14.6f ${m.unit}%-6s (${m.better} is better)"
    println(s"[perfbench] config ${Json(JObj(config))}")
    println(s"[perfbench] ${w.name}: ${outcomes.length} ops (${queries.length} queries, " +
      s"${inserts.length} inserts), $failed failed, fail_frac ${failed.toDouble / math.max(1, outcomes.length)}")
    for ((n, t) <- tails)
      println(f"[perfbench] $n at p${t.percentile}%.1f with ${t.beyond} of ${t.n} samples beyond")
    Report.EndToEnd.foreach(m => println(line(m, e2e.toMap.apply(m.name))))
    if (!args.trace)
      Report.WorkloadOnly.foreach(m => workloadOnly.toMap.get(m.name).foreach(v => println(line(m, v))))
    else {
      Report.PerLayer.foreach(m => println(line(m, perLayer.toMap.apply(m.name))))
      tracer.foreach(tr => println(s"[perfbench] ${Report.accounting(tr)}"))
    }

    val file = new File(args.out, s"${w.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}.json")
    val pw = new PrintWriter(file)
    try pw.println(Json(Json.obj(
      "config" -> JObj(config), "setup_s" -> setupS, "attempted" -> outcomes.length, "failed" -> failed,
      "tails" -> JObj(tails.map { case (n, t) => n -> Json.obj("value" -> t.value,
        "percentile" -> t.percentile, "beyond" -> t.beyond, "n" -> t.n) }),
      "ops" -> outcomes.map(o => Json.obj("op" -> o.what, "ms" -> o.ns / 1e6, "points" -> o.points,
                                          "errors" -> o.errors)),
      "end_to_end" -> JObj(e2e), "workload_only" -> JObj(workloadOnly),
      "per_layer" -> JObj(if (args.trace) perLayer else Nil),
      "spans" -> tracer.map(tr => Report.spans(tr, attr)).getOrElse(Nil))))
    finally pw.close()
    println(s"[perfbench] wrote $file")

    spark.stop()
    val (values, catalogue) = if (args.trace) (perLayer, Report.PerLayer) else (e2e, Report.EndToEnd)
    val units = catalogue.map(m => m.name -> m.unit).toMap
    println(Json(Json.obj(
      "correct" -> (failed == 0), "attempted" -> outcomes.length, "failed" -> failed,
      "metrics" -> JObj(values.map { case (n, v) =>
        n -> Json.obj("value" -> v, "unit" -> units(n)) }))))
  }
}
