package repro.util

/** Wall-clock helpers for the benchmark harnesses. */
object Timing {
  /** Result and elapsed seconds. */
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** One untimed warm-up run of `f`, then `reps` timed runs: the last
    * run's result and the timed runs' seconds, in run order.
    */
  def warm[A](reps: Int)(f: => A): (A, Seq[Double]) = {
    f
    val runs = (1 to reps).map(_ => timed(f))
    (runs.last._1, runs.map(_._2))
  }

  /** The middle of the sorted seconds; the upper middle of an even count. */
  def median(seconds: Seq[Double]): Double = seconds.sorted.apply(seconds.size / 2)

  def fmt(s: Double): String = f"$s%.2f"
}

/** A rendered experiment table (one per reproduced paper table). */
final case class Table(title: String, header: Seq[String], rows: Seq[Seq[String]], notes: Seq[String] = Nil) {
  def render: String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    val body = (line(header) +: sep +: rows.map(line)).mkString("\n")
    val noteLines = if (notes.isEmpty) "" else notes.map("  " + _).mkString("\n", "\n", "")
    s"== $title ==\n$body$noteLines"
  }
}
