package repro.core.query

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.expr

/** Comparison operators supported in CART node conditions (paper §3). */
sealed abstract class CmpOp(val sym: String)
object CmpOp {
  case object Le extends CmpOp("<=")
  case object Ge extends CmpOp(">=")
  case object Eq extends CmpOp("=")
  case object Ne extends CmpOp("<>")
  case object Lt extends CmpOp("<")
  case object Gt extends CmpOp(">")
}

/** A single-attribute predicate `attr op value`.
  *
  * CART path conditions are conjunctions of these, each evaluated as its
  * [[indicator]] factor inside every measure: SUM(Π f · 1[cond]) over D is the
  * SUM over the rows of D that satisfy cond.
  */
final case class Predicate(attr: String, op: CmpOp, value: Long) {
  /** Spark parses the SQL that DuckDB runs: one rendering for both engines. */
  def column: Column = expr(sql)

  /** The 0/1 factor of this predicate, applied at the attribute's owner. */
  def indicator: Factor = Factor(attr, ScalarFn.Indicator(op, value))

  /** Whether the value `x` of `attr` satisfies the predicate: [[column]]
    * evaluated on the driver.
    */
  def holds(x: Long): Boolean = op match {
    case CmpOp.Le => x <= value
    case CmpOp.Ge => x >= value
    case CmpOp.Eq => x == value
    case CmpOp.Ne => x != value
    case CmpOp.Lt => x < value
    case CmpOp.Gt => x > value
  }

  /** DuckDB SQL over VARCHAR-typed oracle tables. */
  def sql: String = s"CAST($attr AS BIGINT) ${op.sym} $value"
}
