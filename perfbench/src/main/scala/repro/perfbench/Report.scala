package repro.perfbench

/** A reported metric: its unit and which direction is better. */
final case class Metric(name: String, unit: String, better: String)

/** The metric catalogue (BENCHMARK.json lists the same names) and the
  * derivation of per-layer metrics from a traced run.
  */
object Report {
  private def lower(n: String, u: String) = Metric(n, u, "lower")
  private def higher(n: String, u: String) = Metric(n, u, "higher")

  /** Measured with tracing off, on every workload. */
  val EndToEnd: Seq[Metric] = Seq(
    lower("setup_s", "s"), lower("query_p50_ms", "ms"), lower("query_tail_ms", "ms"),
    higher("ops_per_s", "1/s"), higher("points_per_s", "1/s"), lower("heap_retained_mb", "MB"))

  /** End-to-end figures that exist only on some workloads. They are printed
    * with every run and listed with the per-layer metrics (0 where they do
    * not apply); `fail_frac` is the result line's `failed / attempted`.
    */
  val WorkloadOnly: Seq[Metric] = Seq(
    lower("build_s", "s"), lower("insert_p50_us", "us"), lower("insert_tail_us", "us"),
    higher("ari", "ratio"), lower("storage_amp", "ratio"))

  val PerLayer: Seq[Metric] = Seq(
    lower("voting.self_ms", "ms"), lower("voting.rows_in", "count"), lower("voting.vote_sum", "vote"),
    lower("voting.zero_vote_frac", "ratio"), lower("voting.shuffle_write_bytes", "bytes"),
    lower("voting.tasks", "count"),
    lower("segmentation.self_ms", "ms"), lower("segmentation.subtrajs", "count"),
    lower("segmentation.shuffle_write_bytes", "bytes"),
    lower("sampling.self_ms", "ms"), lower("sampling.candidates", "count"), lower("sampling.reps", "count"),
    lower("clustering.self_ms", "ms"), lower("clustering.distance_evals", "count"),
    lower("clustering.outlier_frac", "ratio"),
    lower("rtree.self_ms", "ms"), lower("rtree.boxes", "count"),
    lower("range.self_ms", "ms"), lower("range.rows_out", "count"),
    lower("retratree.build_voting_ms", "ms"), lower("retratree.build_write_ms", "ms"),
    lower("retratree.build_cluster_ms", "ms"), lower("retratree.level4_bytes", "bytes"),
    lower("retratree.chunks", "count"),
    lower("retratree.load_chunk_calls", "count"), lower("retratree.load_chunk_ms", "ms"),
    lower("retratree.load_chunk_rows", "count"), lower("retratree.load_chunk_input_bytes", "bytes"),
    lower("retratree.load_chunk_jobs", "count"),
    lower("retratree.cluster_series_ms", "ms"), lower("retratree.cluster_series_subtrajs", "count"),
    lower("qut.reuse_ms", "ms"), lower("qut.recompute_ms", "ms"), lower("qut.merge_ms", "ms"),
    higher("qut.reused_chunks", "count"), lower("qut.recomputed_chunks", "count"),
    lower("qut.recompute_frac", "ratio"),
    lower("retratree.insert_ms", "ms"), lower("retratree.appended", "count"),
    lower("retratree.reclusters", "count"), lower("retratree.recluster_ms", "ms"),
    lower("retratree.inserted_unseen", "count"),
    lower("spark.jobs", "count"), lower("spark.tasks", "count"), lower("spark.task_run_ms", "ms"),
    lower("spark.shuffle_write_bytes", "bytes"), higher("spark.core_utilization", "ratio"),
    lower("jvm.gc_ms", "ms"),
    lower("trace.overhead_frac", "ratio"), lower("trace.unattributed_frac", "ratio"),
  ) ++ WorkloadOnly

  /** Per-layer metrics from the traced query ops (roots `op.s2t` / `op.qut`)
    * and insert ops (roots `op.insert`). Times and counts are means per
    * traced query op, `retratree.insert_ms` and `retratree.recluster_ms` per
    * insert; a span's layer time is its self time, except the named
    * `retratree.*` and `qut.*` call times, which include their children.
    */
  def layers(tr: Tracer, attr: SparkAttribution, cores: Int,
             untracedQueryMs: Seq[Double]): Seq[(String, Double)] = {
    val queries = tr.roots.filter(_.name != "op.insert")
    val nQ = math.max(1, queries.length).toDouble
    val inQuery = queries.flatMap(tr.subtree)
    def ms(ns: Double) = ns / 1e6
    def of(p: Span => Boolean) = inQuery.filter(p)
    def named(n: String) = of(_.name == n)
    def module(m: String) = of(_.module == m)
    def self(m: String) = ms(module(m).map(s => tr.selfNs(s).toDouble).sum) / nQ
    def dur(n: String) = ms(named(n).map(_.durNs.toDouble).sum) / nQ
    def total(spans: Seq[Span], key: String) = spans.map(_.counters.getOrElse(key, 0.0)).sum
    def per(spans: Seq[Span], key: String) = total(spans, key) / nQ
    def frac(a: Double, b: Double) = if (b > 0) a / b else 0.0
    def work(spans: Seq[Span]) = { val w = new SparkWork; spans.foreach(s => w.add(attr.of(s.id))); w }
    val inserts = tr.spans.filter(_.name == "retratree.insertTrajectory").toSeq
    val reclustering = inserts.filter(_.counters.getOrElse("reclusters", 0.0) > 0)
    val voting = work(module("voting")); val seg = work(module("segmentation"))
    val loads = named("retratree.loadChunk"); val loadWork = work(loads)
    val all = work(inQuery)
    val rootMs = queries.map(s => ms(s.durNs.toDouble))
    val reused = named("qut.reuse").length.toDouble; val recomputed = named("qut.recompute").length.toDouble
    Seq(
      "voting.self_ms" -> self("voting"),
      "voting.rows_in" -> per(module("voting"), "rows_in"),
      "voting.vote_sum" -> per(queries, "vote_sum"),
      "voting.zero_vote_frac" -> frac(total(queries, "zero_votes"), total(queries, "samples")),
      "voting.shuffle_write_bytes" -> voting.shuffleWriteBytes / nQ,
      "voting.tasks" -> voting.tasks / nQ,
      "segmentation.self_ms" -> self("segmentation"),
      "segmentation.subtrajs" -> per(module("segmentation"), "subtrajs"),
      "segmentation.shuffle_write_bytes" -> seg.shuffleWriteBytes / nQ,
      "sampling.self_ms" -> self("sampling"),
      "sampling.candidates" -> per(module("sampling"), "candidates"),
      "sampling.reps" -> per(module("sampling"), "reps"),
      "clustering.self_ms" -> self("clustering"),
      "clustering.distance_evals" -> per(module("clustering"), "distance_evals"),
      "clustering.outlier_frac" -> frac(total(module("clustering"), "outliers"),
                                        total(module("clustering"), "subs")),
      "rtree.self_ms" -> self("rtree"),
      "rtree.boxes" -> per(module("rtree"), "boxes"),
      "range.self_ms" -> self("range"),
      "range.rows_out" -> per(module("range"), "rows_out"),
      "retratree.load_chunk_calls" -> loads.length / nQ,
      "retratree.load_chunk_ms" -> dur("retratree.loadChunk"),
      "retratree.load_chunk_rows" -> per(loads, "rows"),
      "retratree.load_chunk_input_bytes" -> loadWork.inputBytes / nQ,
      "retratree.load_chunk_jobs" -> loadWork.jobs / nQ,
      "retratree.cluster_series_ms" -> dur("retratree.clusterSeries"),
      "retratree.cluster_series_subtrajs" -> per(named("segmentation.segmentOne"), "subtrajs"),
      "qut.reuse_ms" -> dur("qut.reuse"),
      "qut.recompute_ms" -> dur("qut.recompute"),
      "qut.merge_ms" -> dur("qut.merge"),
      "qut.reused_chunks" -> reused / nQ,
      "qut.recomputed_chunks" -> recomputed / nQ,
      "qut.recompute_frac" -> frac(recomputed, reused + recomputed),
      "retratree.insert_ms" -> (if (inserts.isEmpty) 0.0 else ms(inserts.map(_.durNs.toDouble).sum) / inserts.length),
      "retratree.recluster_ms" ->
        (if (reclustering.isEmpty) 0.0 else ms(reclustering.map(_.durNs.toDouble).sum) / reclustering.length),
      "spark.jobs" -> all.jobs / nQ,
      "spark.tasks" -> all.tasks / nQ,
      "spark.task_run_ms" -> all.runMs / nQ,
      "spark.shuffle_write_bytes" -> all.shuffleWriteBytes / nQ,
      "spark.core_utilization" -> frac(all.runMs.toDouble, rootMs.sum * cores),
      "jvm.gc_ms" -> queries.map(_.gcMs.toDouble).sum / nQ,
      "trace.overhead_frac" ->
        (if (rootMs.isEmpty || untracedQueryMs.isEmpty) 0.0
         else Stats.median(rootMs) / Stats.median(untracedQueryMs) - 1.0),
      "trace.unattributed_frac" -> frac(queries.map(s => tr.selfNs(s).toDouble).sum,
                                        queries.map(_.durNs.toDouble).sum),
    )
  }

  /** How the traced query ops' time splits: self time inside layer spans,
    * unattributed root time, and op time (means per op; the first two add up
    * to the third).
    */
  def accounting(tr: Tracer): String = {
    val queries = tr.roots.filter(_.name != "op.insert")
    val n = math.max(1, queries.length) * 1e6
    val layers = queries.flatMap(q => tr.subtree(q).tail).map(tr.selfNs).sum / n
    val root = queries.map(tr.selfNs).sum / n
    val op = queries.map(_.durNs).sum / n
    f"trace: layer self time $layers%.3f ms + unattributed $root%.3f ms = op time $op%.3f ms per query op"
  }

  /** The spans of a traced run, for the trace file. */
  def spans(tr: Tracer, attr: SparkAttribution): Seq[JObj] = tr.spans.toSeq.map { s =>
    val w = attr.of(s.id)
    Json.obj("id" -> s.id, "name" -> s.name, "parent" -> s.parent, "op" -> s.opId,
      "start_ns" -> s.startNs, "end_ns" -> s.endNs, "self_ns" -> tr.selfNs(s), "gc_ms" -> s.gcMs,
      "counters" -> JObj(s.counters.toSeq),
      "spark" -> Json.obj("jobs" -> w.jobs, "tasks" -> w.tasks, "run_ms" -> w.runMs,
        "gc_ms" -> w.gcMs, "shuffle_read_bytes" -> w.shuffleReadBytes,
        "shuffle_write_bytes" -> w.shuffleWriteBytes, "input_bytes" -> w.inputBytes))
  }
}
