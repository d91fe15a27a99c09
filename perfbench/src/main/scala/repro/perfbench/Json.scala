package repro.perfbench

/** A JSON object with its fields in order. */
final case class JObj(fields: Seq[(String, Any)])

/** A minimal JSON writer for the benchmark's result lines and files. */
object Json {
  def obj(fields: (String, Any)*): JObj = JObj(fields)

  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'          => b ++= "\\\""
      case '\\'         => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c            => b += c
    }
    (b += '"').toString
  }

  def apply(v: Any): String = v match {
    case null            => "null"
    case JObj(fs)        => fs.map { case (k, x) => str(k) + ": " + apply(x) }.mkString("{", ", ", "}")
    case s: String       => str(s)
    case b: Boolean      => b.toString
    case d: Double       => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int          => n.toString
    case n: Long         => n.toString
    case xs: Iterable[_] => xs.map(apply).mkString("[", ", ", "]")
    case other           => str(other.toString)
  }
}
