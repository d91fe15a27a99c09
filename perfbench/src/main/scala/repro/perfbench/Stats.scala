package repro.perfbench

/** Order statistics used for every latency the benchmark reports. */
object Stats {

  /** A tail latency: the value at `percentile`, with `beyond` of the `n`
    * samples above it.
    */
  final case class Tail(value: Double, percentile: Double, beyond: Int, n: Int)

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2.0
  }

  /** The highest percentile that has ten samples beyond it. A run with fewer
    * than 21 samples has no such percentile above its median; there the tail
    * keeps (n - 1) / 2 samples beyond it, so it never reads below the median
    * and is the maximum when n <= 2.
    */
  def tail(xs: Seq[Double]): Tail = {
    require(xs.nonEmpty, "tail of no samples")
    val s = xs.sorted
    val n = s.length
    val beyond = math.min(10, (n - 1) / 2)
    Tail(s(n - 1 - beyond), 100.0 * (n - beyond) / n, beyond, n)
  }
}
