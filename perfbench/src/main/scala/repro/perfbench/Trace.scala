package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerTaskEnd}

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed call into a layer, recorded from the benchmark side. The name is
  * `<module>.<function>`; `parent` is -1 for the root span of an operation.
  */
final case class Span(id: Int, name: String, parent: Int, opId: Int, startNs: Long) {
  var endNs: Long = -1L
  var gcMs: Long = 0L
  val counters: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  def module: String = name.takeWhile(_ != '.')
  def durNs: Long = endNs - startNs
}

/** Spark work attributed to one span. */
final class SparkWork {
  var jobs = 0L; var tasks = 0L; var runMs = 0L; var gcMs = 0L
  var shuffleReadBytes = 0L; var shuffleWriteBytes = 0L; var inputBytes = 0L
  def add(o: SparkWork): Unit = {
    jobs += o.jobs; tasks += o.tasks; runMs += o.runMs; gcMs += o.gcMs
    shuffleReadBytes += o.shuffleReadBytes; shuffleWriteBytes += o.shuffleWriteBytes
    inputBytes += o.inputBytes
  }
}

/** Attributes Spark jobs, and the tasks of their stages, to the span that was
  * open on the submitting thread. The span id travels as a local property, so
  * the asynchronous listener bus cannot attribute work to a later span.
  */
final class SparkAttribution extends SparkListener {
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val work = mutable.Map.empty[Int, SparkWork]
  private var started = 0L
  private var ended = 0L
  private var lastEventNs = System.nanoTime()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    started += 1; lastEventNs = System.nanoTime()
    Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey))).foreach { s =>
      val id = s.toInt
      work.getOrElseUpdate(id, new SparkWork).jobs += 1
      e.stageIds.foreach(st => stageSpan(st) = id)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    ended += 1; lastEventNs = System.nanoTime()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    lastEventNs = System.nanoTime()
    for (id <- stageSpan.get(e.stageId); m <- Option(e.taskMetrics)) {
      val w = work.getOrElseUpdate(id, new SparkWork)
      w.tasks += 1
      w.runMs += m.executorRunTime
      w.gcMs += m.jvmGCTime
      w.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      w.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      w.inputBytes += m.inputMetrics.bytesRead
    }
  }

  /** Wait until every started job has ended and the bus has been quiet for a
    * moment, so that late task events are counted (at most `maxMs`).
    */
  def awaitQuiet(maxMs: Long = 10000L): Unit = {
    val deadline = System.nanoTime() + maxMs * 1000000L
    def quiet: Boolean = synchronized {
      started == ended && System.nanoTime() - lastEventNs > 300L * 1000000L
    }
    while (!quiet && System.nanoTime() < deadline) Thread.sleep(50)
  }

  def of(spanId: Int): SparkWork = synchronized(work.getOrElse(spanId, new SparkWork))
}

/** In-memory span recorder for the traced run. Spans nest by call order; the
  * spans of one operation share its op id. Nothing is written until the run
  * ends.
  */
final class Tracer(sc: Option[SparkContext]) {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private val open = mutable.Stack.empty[Span]
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private def gcNow: Long = gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Run `body` as a span; a span opened with no span open starts op `opId`. */
  def span[A](name: String, opId: Int = -1)(body: => A): A = {
    val parent = open.headOption
    val s = Span(spans.length, name, parent.map(_.id).getOrElse(-1),
                 parent.map(_.opId).getOrElse(opId), System.nanoTime())
    spans += s
    open.push(s)
    sc.foreach(_.setLocalProperty(Tracer.SpanKey, s.id.toString))
    val gc0 = gcNow
    try body
    finally {
      s.endNs = System.nanoTime()
      s.gcMs = gcNow - gc0
      open.pop()
      sc.foreach(_.setLocalProperty(Tracer.SpanKey, parent.map(_.id.toString).orNull))
    }
  }

  /** Add `v` to a named count on the innermost open span. */
  def count(key: String, v: Double): Unit =
    open.headOption.foreach(s => s.counters(key) = s.counters.getOrElse(key, 0.0) + v)

  def children(s: Span): Seq[Span] = spans.filter(_.parent == s.id).toSeq
  def roots: Seq[Span] = spans.filter(_.parent == -1).toSeq
  /** The span and all spans below it. */
  def subtree(s: Span): Seq[Span] = s +: children(s).flatMap(subtree)
  def selfNs(s: Span): Long = Tracer.selfNs(s, children(s))
}

object Tracer {
  val SpanKey = "perfbench.span"

  /** A span's self time: its duration minus the part of its interval that its
    * children cover (overlapping children are counted once).
    */
  def selfNs(s: Span, children: Seq[Span]): Long = {
    val iv = children.map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var covered = 0L
    var curA = Long.MinValue; var curB = Long.MinValue
    for ((a, b) <- iv) {
      if (a > curB) { if (curB > curA) covered += curB - curA; curA = a; curB = b }
      else curB = math.max(curB, b)
    }
    if (curB > curA) covered += curB - curA
    s.durNs - covered
  }
}
