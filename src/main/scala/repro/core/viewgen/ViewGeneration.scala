package repro.core.viewgen

import scala.collection.mutable

import repro.core.query.AggQuery
import repro.core.schema.JoinTree

/** Sharing statistics of a generated plan — the quantities reproduced in
  * Table T1 (batch sizes and computation sharing).
  *
  * @param nQueries        queries in the batch
  * @param nAggregates     total measures across the batch
  * @param nUnmergedViews  views before merging: one per (query, edge) in each
  *                        query's root orientation
  * @param nMergedViews    merged views actually computed
  * @param nAggColumns     distinct aggregate columns across merged views after
  *                        signature dedup (shared partials counted once)
  * @param nGroups         multi-output view groups (see [[repro.core.group]])
  * @param nOutputSums     sum columns the output passes evaluate: the
  *                        distinct products of each grouping set
  *                        ([[OutputPass]]); before that dedup there is one per
  *                        aggregate
  */
final case class SharingStats(
    nQueries: Int,
    nAggregates: Int,
    nUnmergedViews: Int,
    nMergedViews: Int,
    nAggColumns: Int,
    nGroups: Int,
    nOutputSums: Int,
)

/** The complete multi-query plan: merged views in a valid bottom-up
  * (dependency) order plus per-query root outputs.
  */
final case class Plan(
    tree: JoinTree,
    queries: Seq[AggQuery],
    roots: Map[String, String],
    views: Seq[MergedView],
    outputs: Seq[QueryOutput],
) {
  val viewById: Map[ViewId, MergedView] = views.map(v => v.id -> v).toMap

  /** The outputs by output group, in order of each group's first query:
    * those with the same root and incoming views share one join frame and
    * one output pass.
    */
  def outputGroups: Seq[Seq[QueryOutput]] = Plan.inOrder(outputs)(o => (o.root, o.incoming.toSet))

  def stats(nGroups: Int): SharingStats = SharingStats(
    nQueries = queries.size,
    nAggregates = queries.map(_.measures.size).sum,
    nUnmergedViews = queries.map(q => tree.relations.size - 1).sum,
    nMergedViews = views.size,
    nAggColumns = views.map(_.aggs.size).sum,
    nGroups = nGroups,
    nOutputSums = outputGroups.map(OutputPass(tree, _).sums).sum,
  )
}

object Plan {
  /** `xs` grouped by `key`, the groups in order of their first element and
    * each in the order of `xs`.
    */
  private[core] def inOrder[A, K](xs: Seq[A])(key: A => K): Seq[Seq[A]] = {
    val byKey = xs.groupBy(key)
    xs.map(key).distinct.map(byKey)
  }
}

/** The View Generation layer: decomposes every query of the batch into one
  * directional view per join-tree edge (top-down from the query's root) and
  * merges views with identical (direction, group-by keys), deduplicating
  * aggregate columns by recursive signature.
  *
  * A view on edge (c → p) also carries every group-by attribute of the batch
  * that the edge's join keys fix ([[JoinTree.determined]]). Such an attribute
  * has one value per join-key value, so the view's rows do not change, and
  * views that would differ only in such attributes (`V_Items→Sales(item)`
  * and `(family,item)`) are one view.
  */
object ViewGeneration {

  /** Builder state for one merged view. */
  private final class ViewBuilder(val id: ViewId, val index: Int) {
    val bySig = mutable.LinkedHashMap.empty[String, ViewAgg]
    def getOrAdd(sig: String, mk: String => ViewAgg): ViewAgg =
      bySig.getOrElseUpdate(sig, mk(s"v${index}_a${bySig.size}"))
    def build: MergedView = MergedView(id, bySig.values.toSeq)
  }

  def plan(tree: JoinTree, queries: Seq[AggQuery],
           rootOverrides: Map[String, String] = Map.empty): Plan = {
    require(queries.nonEmpty, "empty query batch")
    require(queries.map(_.name).distinct.size == queries.size, "duplicate query names in batch")
    queries.foreach { q =>
      q.attrs.foreach(a => require(tree.allAttrs.contains(a), s"query ${q.name}: unknown attribute $a"))
    }

    val roots = RootAssignment.assign(tree, queries, rootOverrides)
    val builders = mutable.LinkedHashMap.empty[ViewId, ViewBuilder]
    val batchGroupBy = queries.flatMap(_.groupBy).toSet

    def builderFor(id: ViewId): ViewBuilder =
      builders.getOrElseUpdate(id, new ViewBuilder(id, builders.size))

    val outputs = queries.map { q =>
      val root = roots(q.name)
      val groupBySet = q.groupBy.toSet
      val edges = tree.bottomUpEdges(root)

      val terms = q.measures.map { m =>
        // m's partial on each directed edge so far: its view and column
        val edgeAgg = mutable.Map.empty[(String, String), (ViewId, ViewAgg)]
        // m's term at `node`: its factors owned there, times its partials
        // on every edge into `node` but the one from `parent`
        def term(node: String, parent: Option[String]): MeasureTerm = {
          val children = tree.neighbors(node).filterNot(parent.contains).map(x => edgeAgg((x, node)))
          val localFactors = m.factors.filter(f => tree.owner(f.attr) == node)
          MeasureTerm(signature(localFactors.map(_.tag), children.map { case (id, a) => (id, a.sig) }),
            localFactors, children.map { case (id, a) => AggRef(id, a.name) })
        }
        edges.foreach { case (c, p) =>
          // The batch's group-by attributes that the edge's join keys fix
          // ride along on every view of the edge, with the same rows.
          val keys = (tree.joinKeys(c, p).toSet ++ (groupBySet intersect tree.subtreeAttrs(c, p)) ++
            (batchGroupBy intersect tree.determined(c, p))).toSeq.sorted
          val id = ViewId(c, p, keys)
          val t = term(c, Some(p))
          edgeAgg((c, p)) = id -> builderFor(id).getOrAdd(t.sig, ViewAgg(_, t.sig, t.localFactors, t.childRefs))
        }
        term(root, None)
      }
      QueryOutput(q, root, terms)
    }

    // The views in the order their builders were made, which lists every
    // view after the views it reads, for two reasons: each query visits its
    // edges bottom-up, so the first query to reach a view has made the views
    // it reads before it; and a view's id fixes its child views (see
    // `signature`), so a later query that adds a column to it reads those
    // same views.
    Plan(tree, queries, roots, builders.values.map(_.build).toSeq, outputs)
  }

  /** Canonical signature of a [[Term]], a view's partial aggregate or a
    * measure at its root: its local factors plus the recursive signatures of
    * the child partials it multiplies (wrapped in the child view's
    * direction). Independent of query, insertion and factor order. View
    * merging shares a view's column by it, and an output pass its sums
    * ([[OutputSet]]).
    *
    * The child views' keys are left out: they do not change the SUM over the
    * subtree's join, and within one plan a view's keys fix its child views'
    * keys.
    */
  private def signature(factorTags: Seq[String], children: Seq[(ViewId, String)]): String = {
    val parts = factorTags.sorted ++ children.map { case (vid, s) => s"${vid.from}>${vid.to}{$s}" }.sorted
    if (parts.isEmpty) "1" else parts.mkString("*")
  }
}
