package repro.core.query

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{array, col, explode, lit, sum, when}

/** The one aggregate class LMFAO evaluates, as Spark expressions: grouped SUMs
  * of products of factors. The engine's merged views, its query outputs and
  * the baselines all build their aggregate passes here.
  */
object SumOfProducts {

  /** Π factor × Π partial, where each partial is an aggregate of an
    * incoming view. No factors and no partials is the constant 1 (COUNT(*)).
    */
  def product(factors: Seq[Factor], partials: Seq[Column] = Nil): Column =
    (factors.map(_.column) ++ partials).foldLeft(lit(1.0))(_ * _)

  /** One aggregate pass: `SELECT keys…, SUM(p) AS name, … FROM frame GROUP BY
    * keys…`. Empty `keys` is a global aggregate (one row, NULL sums on empty
    * input), exactly what `Dataset.agg` computes.
    */
  def groupedSum(frame: DataFrame, keys: Seq[String], sums: Seq[(String, Column)]): DataFrame = {
    val exprs = sums.map { case (name, p) => sum(p).as(name) }
    frame.groupBy(keys.map(col): _*).agg(exprs.head, exprs.tail: _*)
  }

  /** The column of [[groupingSets]] that holds a row's set index. */
  val SetColumn = "lmfao_grouping_set"

  /** Several aggregate passes over one frame as one job: set i is
    * `SELECT keysᵢ…, SUM(p) AS name, … GROUP BY keysᵢ…`, and its rows carry i
    * in [[SetColumn]]. Every row of the frame is copied once per set; in set
    * i's copy the keys of the other sets are NULL, and only set i's sums read
    * it. Sum names must be distinct across sets. Unlike [[groupedSum]], a
    * global set over an empty frame has no row. A single set is a plain
    * [[groupedSum]] with no copy (a global one keeps its row of NULL sums),
    * and its rows carry set 0.
    */
  def groupingSets(frame: DataFrame, sets: Seq[(Seq[String], Seq[(String, Column)])]): DataFrame = {
    require(sets.nonEmpty, "no grouping sets")
    if (sets.size == 1) groupedSum(frame, sets.head._1, sets.head._2).withColumn(SetColumn, lit(0))
    else {
      val set = col(SetColumn)
      val keys = sets.flatMap(_._1).distinct.map { k =>
        when(set.isin(sets.indices.filter(i => sets(i)._1.contains(k)): _*), col(k)).as(k)
      }
      val exprs = sets.zipWithIndex.flatMap { case ((_, sums), i) =>
        sums.map { case (name, p) => sum(when(set === i, p)).as(name) }
      }
      frame.withColumn(SetColumn, explode(array(sets.indices.map(lit): _*)))
        .groupBy(set +: keys: _*).agg(exprs.head, exprs.tail: _*)
    }
  }
}
