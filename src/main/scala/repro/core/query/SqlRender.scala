package repro.core.query

import repro.core.schema.JoinTree

/** Renders a batch query as DuckDB SQL over the base relations, for the
  * correctness oracle. The natural join is spelled as a chain of JOIN … USING
  * clauses in BFS order from the first relation; the running intersection
  * property guarantees each relation's join keys are already present in the
  * prefix, so USING is well defined.
  */
object SqlRender {

  /** FROM clause joining every relation of the tree. */
  def fromClause(tree: JoinTree): String =
    (tree.relations.head.name +: tree.joinOrder.map { case (n, m) =>
      s"JOIN $m USING (${tree.joinKeys(n, m).mkString(", ")})"
    }).mkString(" ")

  /** Full SELECT for an [[AggQuery]] over the natural join of the tree. */
  def querySql(tree: JoinTree, q: AggQuery): String = {
    val select = (q.groupBy ++ q.measures.map(_.sql)).mkString(", ")
    val group = if (q.groupBy.isEmpty) "" else " GROUP BY " + q.groupBy.mkString(", ")
    s"SELECT $select FROM ${fromClause(tree)}$group"
  }
}
