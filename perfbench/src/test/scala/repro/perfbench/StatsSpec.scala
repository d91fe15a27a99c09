package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("tail keeps exactly ten samples beyond it and reports n") {
    val xs = (1 to 100).map(_.toDouble)
    val t = Stats.tail(scala.util.Random.shuffle(xs))
    assert(t == Stats.Tail(90.0, 90.0, 10, 100))
    assert(xs.count(_ > t.value) == 10)
  }

  test("tail is the highest percentile with ten samples beyond it") {
    val t = Stats.tail((1 to 40).map(_.toDouble))
    assert(t.value == 30.0 && t.beyond == 10 && t.n == 40 && t.percentile == 75.0)
  }

  test("short runs keep the tail at or above the median") {
    val t = Stats.tail((1 to 11).map(_.toDouble))
    assert(t.beyond == 5 && t.value == 6.0 && t.value >= Stats.median((1 to 11).map(_.toDouble)))
    assert(Stats.tail(Seq(3.0, 1.0, 2.0)) == Stats.Tail(2.0, 100.0 * 2 / 3, 1, 3))
    assert(Stats.tail(Seq(5.0, 7.0)) == Stats.Tail(7.0, 100.0, 0, 2))
    assert(Stats.tail(Seq(4.0)) == Stats.Tail(4.0, 100.0, 0, 1))
  }

  test("median of odd and even counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
  }
}
