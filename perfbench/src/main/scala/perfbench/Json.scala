package perfbench

import scala.collection.immutable.ListMap

/** Minimal JSON rendering for the benchmark's reports. Objects are `Map`s
  * (a `ListMap` keeps key order); non-finite numbers become `null`.
  */
object Json {
  def obj(kv: (String, Any)*): ListMap[String, Any] = ListMap(kv: _*)

  def render(v: Any): String = v match {
    case s: String                => quote(s)
    case b: Boolean               => b.toString
    case d: Double                => if (d.isNaN || d.isInfinite) "null" else d.toString
    case i @ (_: Int | _: Long)   => i.toString
    case m: collection.Map[_, _]  => m.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]          => xs.map(render).mkString("[", ", ", "]")
    case other                    => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'          => b ++= "\\\""
      case '\\'         => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c            => b += c
    }
    (b += '"').toString
  }
}
