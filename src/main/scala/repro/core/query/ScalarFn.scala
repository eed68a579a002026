package repro.core.query

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.col

/** A unary numeric function applied to one attribute inside a SUM-of-products
  * measure — the paper's user-defined aggregate functions such as `g(item)`
  * and `h(date)`.
  *
  * Every function must render identically on Spark (as a [[Column]]) and on
  * DuckDB (as SQL over VARCHAR-typed oracle tables, hence the explicit casts).
  * All functions are integer-valued on integer inputs so that sums stay exact
  * in double arithmetic and the oracle can compare results bit-for-bit.
  */
sealed trait ScalarFn {
  /** Spark expression for the function applied to attribute `attr`. */
  def column(attr: String): Column
  /** DuckDB SQL for the function applied to attribute `attr`. */
  def sql(attr: String): String
  /** Stable identifier used in aggregate-signature canonicalisation. */
  def tag: String
}

object ScalarFn {
  /** f(x) = x. */
  case object Identity extends ScalarFn {
    def column(attr: String): Column = col(attr).cast("double")
    def sql(attr: String): String = s"CAST($attr AS DOUBLE)"
    def tag: String = "id"
  }

  /** f(x) = x². */
  case object Square extends ScalarFn {
    def column(attr: String): Column = (col(attr) * col(attr)).cast("double")
    def sql(attr: String): String = s"(CAST($attr AS DOUBLE) * CAST($attr AS DOUBLE))"
    def tag: String = "sq"
  }

  /** f(x) = (x mod m) + off — a cheap deterministic stand-in for the paper's
    * opaque UDFs g and h; integer-valued, engine-agnostic.
    */
  final case class ModShift(m: Long, off: Long) extends ScalarFn {
    require(m > 0, "modulus must be positive")
    def column(attr: String): Column = ((col(attr).cast("long") % m) + off).cast("double")
    def sql(attr: String): String = s"CAST((CAST($attr AS BIGINT) % $m) + $off AS DOUBLE)"
    def tag: String = s"mod${m}_$off"
  }

  /** f(x) = 1 if `x op value` holds, else 0 ([[Predicate.indicator]]). The tag
    * records op and value, so two conditions never share an aggregate column.
    */
  final case class Indicator(op: CmpOp, value: Long) extends ScalarFn {
    def column(attr: String): Column = Predicate(attr, op, value).column.cast("double")
    def sql(attr: String): String = s"CAST(${Predicate(attr, op, value).sql} AS DOUBLE)"
    def tag: String = s"1[${op.sym}$value]"
  }

  /** The paper's g(item): any numeric UDF over a key attribute. */
  val G: ScalarFn = ModShift(97, 3)
  /** The paper's h(date): any numeric UDF over a date attribute. */
  val H: ScalarFn = ModShift(31, 1)
}
