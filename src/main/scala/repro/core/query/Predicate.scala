package repro.core.query

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.col

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
  * CART path conditions are conjunctions of these; because each references one
  * attribute, they push down to every base relation containing the attribute,
  * which is how the engine evaluates filtered batches without changing the
  * view-decomposition machinery.
  */
final case class Predicate(attr: String, op: CmpOp, value: Long) {
  def column: Column = {
    val c = col(attr).cast("long")
    op match {
      case CmpOp.Le => c <= value
      case CmpOp.Ge => c >= value
      case CmpOp.Eq => c === value
      case CmpOp.Ne => c =!= value
      case CmpOp.Lt => c < value
      case CmpOp.Gt => c > value
    }
  }

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
