package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, start: Long, end: Long, name: String = "m.f"): Span = {
    val s = Span(id, name, parent, 0, start); s.endNs = end; s
  }

  test("self time subtracts the time children cover") {
    val root = span(0, -1, 0, 100)
    val a = span(1, 0, 10, 30)
    val b = span(2, 0, 50, 90)
    assert(Tracer.selfNs(root, Seq(a, b)) == 40)
    assert(Tracer.selfNs(a, Nil) == 20)
  }

  test("overlapping children are counted once and clipped to the parent") {
    val root = span(0, -1, 0, 100)
    val kids = Seq(span(1, 0, 10, 40), span(2, 0, 30, 60), span(3, 0, 90, 120))
    assert(Tracer.selfNs(root, kids) == 100 - 50 - 10)
  }

  test("nested spans: self times of a tree add up to the root's duration") {
    val tr = new Tracer(None)
    tr.span("op.test", 7) {
      tr.span("voting.votes") { Thread.sleep(5); tr.span("voting.inner")(Thread.sleep(5)) }
      tr.span("sampling.select")(Thread.sleep(5))
    }
    val root = tr.roots.head
    assert(tr.roots.length == 1 && root.opId == 7)
    assert(tr.spans.forall(_.opId == 7))
    assert(tr.children(root).map(_.name) == Seq("voting.votes", "sampling.select"))
    val selfs = tr.subtree(root).map(tr.selfNs)
    assert(selfs.forall(_ >= 0))
    assert(selfs.sum == root.durNs)
    val voting = tr.spans.find(_.name == "voting.votes").get
    assert(tr.selfNs(voting) < voting.durNs)
  }

  test("counts land on the innermost open span") {
    val tr = new Tracer(None)
    tr.span("op.test", 0) { tr.count("a", 1); tr.span("x.y") { tr.count("a", 2); tr.count("a", 3) } }
    assert(tr.spans.map(_.counters.getOrElse("a", 0.0)) == Seq(1.0, 5.0))
  }
}
