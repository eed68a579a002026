package repro.core.viewgen

import repro.core.query.{AggQuery, Factor}

/** Identity of a merged directional view: the join-tree edge it travels
  * (`from` → `to`) plus its group-by key attributes (sorted). LMFAO merges
  * views "whenever they have the same direction and group-by attributes" —
  * this is exactly the equality on [[ViewId]].
  */
final case class ViewId(from: String, to: String, keys: Seq[String]) {
  require(keys == keys.sorted, "keys must be sorted for canonical identity")
  def label: String = s"V_${from}_to_$to(${keys.mkString(",")})"
}

/** A reference to one aggregate column of an incoming merged view. */
final case class AggRef(view: ViewId, aggName: String)

/** A sum of products at one node: Π localFactors (over the node's
  * attributes) × Π the partials of its incoming views that `childRefs`
  * name. `sig` is its canonical recursive signature: two terms with the same
  * signature sum the same product.
  */
sealed trait Term {
  def sig: String
  def localFactors: Seq[Factor]
  def childRefs: Seq[AggRef]
}

/** One aggregate column of a merged view: its term summed over the view's
  * source relation, grouped by the view's keys. Queries whose partials on
  * this edge have the same `sig` share the column.
  */
final case class ViewAgg(
    name: String,
    sig: String,
    localFactors: Seq[Factor],
    childRefs: Seq[AggRef],
) extends Term

/** A merged view: all aggregate columns travelling the same edge with the same
  * group-by keys, computed in one pass (paper: "a single view may thus be used
  * for several queries").
  */
final case class MergedView(id: ViewId, aggs: Seq[ViewAgg]) {
  require(aggs.nonEmpty, s"view ${id.label} has no aggregates")
  def incoming: Seq[ViewId] = aggs.flatMap(_.childRefs.map(_.view)).distinct
}

/** The decomposition of one query measure at one node; a [[QueryOutput]]
  * holds its measures' terms at the query's root.
  */
final case class MeasureTerm(sig: String, localFactors: Seq[Factor], childRefs: Seq[AggRef]) extends Term

/** A query's final computation at its assigned root: group by the query's
  * group-by attributes over the root relation joined with its incoming views,
  * one [[MeasureTerm]] per measure.
  */
final case class QueryOutput(query: AggQuery, root: String, terms: Seq[MeasureTerm]) {
  require(terms.size == query.measures.size, "one term per measure")
  def incoming: Seq[ViewId] = terms.flatMap(_.childRefs.map(_.view)).distinct
}
