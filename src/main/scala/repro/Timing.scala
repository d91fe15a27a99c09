package repro

/** Wall-clock timing shared by the pipelines' phase breakdowns. */
object Timing {

  /** Run `body`; return its result and the elapsed wall-clock milliseconds. */
  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1000000L)
  }
}
