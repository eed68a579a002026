package repro.core.viewgen

import repro.core.query.AggQuery
import repro.core.schema.JoinTree

/** Per-query root assignment (paper: "one join tree for all queries, but …
  * one root per query (using a simple heuristic)").
  *
  * Heuristic ([[choose]]): pick the relation that contains the most of the
  * query's group-by attributes, so those attributes need not be carried
  * through intermediate views; break ties by relation cardinality (larger
  * relation wins — its tuples then never travel through a view), then by
  * schema order for determinism. Queries without group-by go to the largest
  * relation.
  *
  * [[assign]] roots at the largest relation F every query whose group-by
  * attributes are in F or fixed by the join keys of an edge into F
  * ([[JoinTree.determined]]), and every other query where `choose` says.
  * The group-by attributes of a query rooted at F ride along on views that
  * have the same rows as without them, and all these queries share one scan
  * of F. Without declared keys no query moves from `choose`'s root: an
  * attribute fixed by a join key of F is in F, and `choose` roots a query
  * whose group-by attributes are all in F at F.
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
    val fact = tree.relations.zipWithIndex.maxBy { case (r, i) => (tree.sizeOf(r.name), -i) }._1.name
    val atFact = tree.relationByName(fact).attrSet ++ tree.neighbors(fact).flatMap(tree.determined(_, fact))
    queries.map { q =>
      val r = overrides.getOrElse(q.name, if (q.groupBy.forall(atFact)) fact else choose(tree, q))
      require(tree.relationByName.contains(r), s"root override $r for ${q.name} is not a relation")
      q.name -> r
    }.toMap
  }
}
