package repro.core.query

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{col, lit, sum}

/** The one aggregate class LMFAO evaluates, as Spark expressions: grouped SUMs
  * of products of factors. The engine's merged views, its query outputs and
  * the baselines all build their aggregate passes here.
  */
object SumOfProducts {

  /** Π factor × Π partial, where each partial names an aggregate column of an
    * incoming view. No factors and no partials is the constant 1 (COUNT(*)).
    */
  def product(factors: Seq[Factor], partials: Seq[String] = Nil): Column =
    (factors.map(_.column) ++ partials.map(col)).foldLeft(lit(1.0))(_ * _)

  /** One aggregate pass: `SELECT keys…, SUM(p) AS name, … FROM frame GROUP BY
    * keys…`. Empty `keys` is a global aggregate (one row, NULL sums on empty
    * input), exactly what `Dataset.agg` computes.
    */
  def groupedSum(frame: DataFrame, keys: Seq[String], sums: Seq[(String, Column)]): DataFrame = {
    val exprs = sums.map { case (name, p) => sum(p).as(name) }
    frame.groupBy(keys.map(col): _*).agg(exprs.head, exprs.tail: _*)
  }
}
