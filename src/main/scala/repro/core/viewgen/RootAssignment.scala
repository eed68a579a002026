package repro.core.viewgen

import repro.core.query.AggQuery
import repro.core.schema.JoinTree

/** Per-query root assignment (paper: "one join tree for all queries, but …
  * one root per query (using a simple heuristic)").
  *
  * Heuristic: pick the relation that contains the most of the query's group-by
  * attributes, so those attributes need not be carried through intermediate
  * views; break ties by relation cardinality (larger relation wins — its
  * tuples then never travel through a view), then by schema order for
  * determinism. Queries without group-by go to the largest relation.
  */
object RootAssignment {

  def choose(tree: JoinTree, q: AggQuery): String = {
    val candidates = tree.relations.zipWithIndex.map { case (r, i) =>
      val covered = q.groupBy.count(r.has)
      (covered, tree.sizeOf(r.name), -i, r.name)
    }
    candidates.max._4
  }

  /** Root for every query of a batch, honouring explicit overrides. */
  def assign(tree: JoinTree, queries: Seq[AggQuery],
             overrides: Map[String, String] = Map.empty): Map[String, String] = {
    val unknown = overrides.keySet -- queries.map(_.name)
    require(unknown.isEmpty, s"root overrides name no query of the batch: ${unknown.toSeq.sorted.mkString(", ")}")
    queries.map { q =>
      val r = overrides.getOrElse(q.name, choose(tree, q))
      require(tree.relationByName.contains(r), s"root override $r for ${q.name} is not a relation")
      q.name -> r
    }.toMap
  }
}
