package repro.core.baseline

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel

import repro.core.query.AggQuery
import repro.core.query.SumOfProducts.{groupedSum, product}
import repro.core.schema.JoinTree

/** The mainstream strategies LMFAO is compared against (paper §1: systems
  * that materialise the join and evaluate each aggregate on it, or re-run a
  * join+aggregate query per aggregate).
  */
object Baselines {

  /** Natural join of all relations, composed in BFS order over the tree. */
  def joinAll(tree: JoinTree, tables: Map[String, DataFrame]): DataFrame =
    tree.joinOrder.foldLeft(tables(tree.relations.head.name)) { case (acc, (n, m)) =>
      acc.join(tables(m), tree.joinKeys(n, m), "inner")
    }

  /** Evaluate one query over an (already joined) dataset D; the result
    * columns are the query's `outputColumns`.
    */
  def aggOver(d: DataFrame, q: AggQuery): DataFrame =
    groupedSum(d, q.groupBy, q.measures.map(m => m.name -> product(m.factors)))

  /** Per-query baseline: the join is recomputed for every query (no sharing
    * at all — each aggregate is its own join+aggregate Spark job).
    */
  def runPerQuery(tree: JoinTree, tables: Map[String, DataFrame],
                  queries: Seq[AggQuery]): Map[String, DataFrame] =
    queries.map(q => q.name -> aggOver(joinAll(tree, tables), q)).toMap

  /** Shared-join baseline: materialise (cache) D once, then run one group-by
    * aggregate per query over it — the TensorFlow / scikit-learn-over-Pandas
    * export-the-join strategy.
    */
  def runSharedJoin(tree: JoinTree, tables: Map[String, DataFrame],
                    queries: Seq[AggQuery]): (DataFrame, Map[String, DataFrame]) = {
    val d = joinAll(tree, tables).persist(StorageLevel.MEMORY_AND_DISK)
    (d, queries.map(q => q.name -> aggOver(d, q)).toMap)
  }
}
