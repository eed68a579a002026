package repro.ml.tree

import org.apache.spark.sql.DataFrame

import repro.core.query.{AggQuery, Measure, Predicate}

/** A decision-tree feature: continuous features split on thresholds (≤ t),
  * categorical features on equality (= v).
  */
sealed trait FeatureKind
object FeatureKind {
  case object Continuous extends FeatureKind
  case object Categorical extends FeatureKind
}
final case class TreeFeature(attr: String, kind: FeatureKind)

/** The aggregate batch CART needs at one tree node (paper §3): for every
  * feature Xj, the query
  *
  *   SELECT Xj, SUM(1[cond]), SUM(Y·1[cond]), SUM(Y²·1[cond]) FROM D GROUP BY Xj
  *
  * where cond is the conjunction of threshold conditions on the path from the
  * root, one indicator factor per condition (as in the SIGMOD'19 companion
  * paper). One grouped query per feature provides the variance of *every*
  * candidate split on that feature at once (via prefix sums), which is how
  * LMFAO covers the paper's thousands of per-(feature, threshold) aggregates
  * with a small grouped batch.
  *
  * A value of Xj that cond excludes keeps its row, with count and sums 0; it
  * never changes the chosen split (see DESIGN.md, "CART predicates").
  */
object NodeBatch {

  def queries(features: Seq[TreeFeature], label: String, pathConds: Seq[Predicate]): Seq[AggQuery] =
    features.map { f =>
      AggQuery(
        s"node_${f.attr}",
        Seq(f.attr),
        Seq(
          Measure.count(s"cnt_${f.attr}"),
          Measure.sum(s"sy_${f.attr}", label),
          Measure.sumSquare(s"sy2_${f.attr}", label),
        ).map(m => m.copy(factors = m.factors ++ pathConds.map(_.indicator))),
      )
    }

  /** Per-feature value statistics from the batch's result frames (by query
    * name), whichever engine computed them; each frame is collected once.
    */
  def stats(batch: Seq[AggQuery], results: Map[String, DataFrame]): Map[String, Seq[ValueStats]] =
    batch.map { q =>
      q.groupBy.head -> AggQuery.collect(q, results(q.name)).map { r =>
        val Seq(cnt, sy, sy2) = r.measures
        ValueStats(r.keys.head, cnt, sy, sy2)
      }
    }.toMap

  /** The paper-style count of *conceptual* aggregates the node explores:
    * three aggregates (SUM(1), SUM(Y), SUM(Y²)) per candidate condition; a
    * continuous feature with d distinct values has d−1 thresholds, a
    * categorical one d equality conditions. (Retailer's full schema yields the
    * paper's 3,141 per node.)
    */
  def conceptualAggregates(candidates: Map[String, Int], features: Seq[TreeFeature]): Int =
    features.map { f =>
      val d = candidates.getOrElse(f.attr, 0)
      val conds = f.kind match {
        case FeatureKind.Continuous => math.max(0, d - 1)
        case FeatureKind.Categorical => d
      }
      3 * conds
    }.sum
}
