package repro.core.query

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation

/** One group-by aggregate query over the natural join D of all relations:
  *
  *   SELECT groupBy…, SUM(…) AS m₁, … FROM D GROUP BY groupBy…
  *
  * A batch of these is LMFAO's input. A condition on D (a CART path) is not a
  * filter but an indicator factor of each measure ([[Predicate.indicator]]);
  * its groups keep rows whose sums are 0.
  */
final case class AggQuery(
    name: String,
    groupBy: Seq[String],
    measures: Seq[Measure],
) {
  require(name.nonEmpty, "query name must be non-empty")
  require(measures.nonEmpty, s"query $name needs at least one measure")
  require(groupBy.distinct == groupBy, s"query $name has duplicate group-by attributes")
  require(measures.map(_.name).distinct.size == measures.size, s"query $name has duplicate measure names")
  require(
    measures.forall(m => !groupBy.exists(g => m.name == g)),
    s"query $name: measure names must not collide with group-by attributes")

  /** Every attribute the query touches (group-by and measures). */
  def attrs: Set[String] = groupBy.toSet ++ measures.flatMap(_.attrs)

  /** Output column names, group-by attributes first. */
  def outputColumns: Seq[String] = groupBy ++ measures.map(_.name)
}

/** One row of a query result on the driver: the group-by values and the
  * measure values, each in the query's order.
  */
final case class LocalRow(keys: Seq[Long], measures: Seq[Double])

object AggQuery {

  /** Collect `q`'s result frame once. Group-by values are integer-valued
    * attributes, read as Long; measures are read as Double, with the NULL of
    * a global SUM over no rows read as 0.0. A driver-local frame (a
    * `LocalRelation`, as the engine returns) is read straight from its rows,
    * with no Spark job; any other frame is collected. A NULL group-by value
    * is rejected, naming the query and the attribute.
    */
  def collect(q: AggQuery, result: DataFrame): Seq[LocalRow] = {
    // Each row as its value by column index (null for NULL), and the columns.
    val (rows, columns) = result.queryExecution.logical match {
      case local: LocalRelation =>
        (local.data.map(r => (i: Int) => r.get(i, local.output(i).dataType)), local.output.map(_.name))
      case _ => (result.collect().toSeq.map(r => (i: Int) => r.get(i)), result.columns.toSeq)
    }
    def index(c: String) = {
      require(columns.contains(c), s"query ${q.name}: result has no column $c")
      columns.indexOf(c)
    }
    val keys = q.groupBy.map(k => k -> index(k))
    val measures = q.measures.map(m => index(m.name))
    rows.map { r =>
      LocalRow(
        keys.map { case (k, i) =>
          require(r(i) != null, s"query ${q.name}: NULL value of group-by attribute $k")
          r(i).asInstanceOf[Number].longValue
        },
        measures.map(i => if (r(i) == null) 0.0 else r(i).asInstanceOf[Double]))
    }
  }
}
