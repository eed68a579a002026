package repro.core.query

import org.apache.spark.sql.DataFrame

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
    * a global SUM over no rows read as 0.0.
    */
  def collect(q: AggQuery, result: DataFrame): Seq[LocalRow] =
    result.collect().toSeq.map { r =>
      LocalRow(
        q.groupBy.map(k => r.getAs[Number](k).longValue),
        q.measures.map { m =>
          val i = r.fieldIndex(m.name)
          if (r.isNullAt(i)) 0.0 else r.getDouble(i)
        })
    }
}
