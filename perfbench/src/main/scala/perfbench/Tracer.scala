package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext

/** One traced interval: `parent` is the id of the span that was open when it
  * started (-1 for a top-level span). Times are nanoseconds since the tracer
  * was created.
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
  /** The module the span measures: the name up to its first dot. */
  def layer: String = name.takeWhile(_ != '.')
}

/** Records spans in memory, around calls into the program's modules.
  *
  * While a span is open, jobs submitted from this thread carry its id in the
  * [[Collector.SpanKey]] local property, so the [[Collector]] attributes their
  * counts to the innermost open span.
  */
final class Tracer(sc: SparkContext) {
  private val origin = System.nanoTime()
  private val done = mutable.ArrayBuffer.empty[Span]
  private val open = mutable.Stack.empty[(Int, String, Long)]
  private var nextId = 0

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.fold(-1)(_._1)
    open.push((id, name, System.nanoTime() - origin))
    sc.setLocalProperty(Collector.SpanKey, id.toString)
    try body
    finally {
      val (_, _, start) = open.pop()
      done += Span(id, name, parent, start, System.nanoTime() - origin)
      sc.setLocalProperty(Collector.SpanKey, open.headOption.map(_._1.toString).orNull)
    }
  }

  /** Every closed span, in start order. */
  def spans: Seq[Span] = done.sortBy(_.id).toSeq

  def children(s: Span): Seq[Span] = spans.filter(_.parent == s.id)

  /** `s` and every span below it. */
  def subtree(s: Span): Seq[Span] = s +: children(s).flatMap(subtree)

  /** A span's duration minus the part its child spans cover. */
  def selfSeconds(s: Span): Double = s.seconds - children(s).map(_.seconds).sum

  def named(name: String): Seq[Span] = spans.filter(_.name == name)
}
