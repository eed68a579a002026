package repro.core.exec

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{broadcast, col}
import org.apache.spark.sql.types.StructType
import org.apache.spark.storage.StorageLevel

import repro.core.group.{DependencyGraph, ViewGroup}
import repro.core.query.SumOfProducts.{groupedSum, groupingSets, product, SetColumn}
import repro.core.schema.JoinTree
import repro.core.viewgen.{Plan, ViewId}

/** The LMFAO execution layer on Spark.
  *
  * Each multi-output view group becomes one join of the node's relation with
  * the group's incoming view frames; every merged view of the group is a
  * single grouped SUM-of-products pass over that frame, and *all query
  * outputs of the group are combined into one pass*, with one grouping set
  * per distinct group-by list (the paper's multi-output plans: e.g. the 86
  * queries of Retailer's Σ batch become one job). Catalyst/Tungsten play
  * the role of the paper's code-generation layer.
  *
  * Every computed aggregated view is cached, as LMFAO's engine stores each
  * view: it costs a shuffle, and later groups of the run may read it again.
  * Nothing else is cached: a group's join frame is read directly by each
  * pass over it, and a projection view (below) is kept as its `select`, so
  * its consumer's job scans the relation again.
  *
  * A view whose keys include the declared key of its node's relation is a
  * projection of the frame: a `select` of its keys and products, with no
  * aggregate and no shuffle. When the keys hold, every group of the
  * aggregate would hold exactly one row: the relation has one row per key
  * value, and an incoming view has one row per value of its keys, whose
  * attributes other than its join keys are group-by attributes that the view
  * generation also carries on the outgoing view, or that the join keys fix.
  * A broken key costs rows, not answers: the projection then keeps several
  * rows of one group, but every measure multiplies each incoming view's
  * partial exactly once, so each output is linear in each view's rows and
  * split rows add up to the same sums. A projection is coalesced to one
  * partition per million rows of its relation by `JoinTree.sizes` (one
  * partition when the size is missing).
  *
  * Each join of the fold broadcasts its smaller side by `JoinTree.sizes`.
  * The incoming view V_{from→node} has at most |R_from| rows, and the
  * group's frame before the join, the node's relation joined with the views
  * folded in before, has at most |R_node| rows. Both bounds hold when every
  * view carries only attributes that its join keys fix, so that each join
  * is many-to-one. The view is broadcast when |R_from| < |R_node|, the frame
  * when |R_node| < |R_from| (Transactions receiving V_{Sales→Transactions}),
  * and both sides are shuffled when the sizes are equal or either is
  * missing. A view that carries other attributes can break the bounds; the
  * choice is then a guess, and it never changes answers. Each output pass is
  * collected once, and every query result is returned as a driver-local
  * frame.
  *
  * Groups run one after another on the calling thread, in group order, so
  * every Spark job carries the caller's local properties. If a pass fails,
  * the views the run cached are unpersisted and its error is rethrown; later
  * groups never start.
  *
  * Each run computes every view of its plan: a batch reads no view of an
  * earlier run. Over Favorita and Retailer, the models' batches root every
  * query at the fact table ([[repro.core.viewgen.RootAssignment]]), where
  * every view is a projection, so those runs cache nothing.
  */
object LmfaoExec {

  /** Rows of a projection view's relation per partition of the view. */
  private val ProjectionPartitionRows = 1000000L

  /** Execution result: per-query driver-local DataFrames (collecting one
    * starts no Spark job) plus the view frames and the groups that
    * produced them (for inspection and benchmarks).
    *
    * Spark keys its cache by plan, so two live results that compute an
    * equal aggregated view over the same input frames share one cache
    * entry, and the first `cleanup()` drops it; the other result's view is
    * then computed again when read, with the same answers.
    *
    * @param plan the plan that was run
    */
  final case class Result(
      queryResults: Map[String, DataFrame],
      viewFrames: Map[ViewId, DataFrame],
      groups: Seq[ViewGroup],
      plan: Plan,
  ) {
    /** Unpersist every view this run cached. */
    def cleanup(): Unit = unpersistComputed(viewFrames)
  }

  /** Unpersist the views a run cached; a projection view is not cached, and
    * unpersisting it is a no-op.
    */
  private def unpersistComputed(viewFrames: collection.Map[ViewId, DataFrame]): Unit =
    viewFrames.values.foreach(_.unpersist())

  /** Run a plan over the given base relations.
    *
    * Every aggregated view the run computes is cached, and nothing else is:
    * a projection view is kept as its `select`, and each view pass and each
    * output pass reads its group's join frame directly.
    *
    * @param tables one DataFrame per relation of the plan's join tree
    */
  def run(tables: Map[String, DataFrame], plan: Plan): Result = {
    plan.tree.relations.foreach { r =>
      require(tables.contains(r.name), s"missing DataFrame for relation ${r.name}")
      r.attrs.foreach(a => require(tables(r.name).columns.contains(a),
        s"relation ${r.name} DataFrame is missing attribute $a"))
    }
    val spark = tables(plan.tree.relations.head.name).sparkSession

    val groups = DependencyGraph.groups(plan)
    val viewFrames = mutable.Map.empty[ViewId, DataFrame]
    val queryResults = mutable.Map.empty[String, DataFrame]

    // One pass over the groups, in group order: a failing pass throws at
    // once, and the views cached so far are unpersisted.
    try {
      groups.foreach { g =>
        val frame = g.incoming.foldLeft(tables(g.node)) { (acc, vid) =>
          val vf = viewFrames(vid)
          val keys = (acc.columns.toSet intersect vid.keys.toSet).toSeq.sorted
          require(keys.nonEmpty, s"no join keys between ${g.node} frame and ${vid.label}")
          (plan.tree.sizes.get(vid.from), plan.tree.sizes.get(g.node)) match {
            case (Some(from), Some(node)) if from < node => acc.join(broadcast(vf), keys, "inner")
            case (Some(from), Some(node)) if node < from => broadcast(acc).join(vf, keys, "inner")
            case _ => acc.join(vf, keys, "inner")
          }
        }
        // One pass per view over the join frame; only aggregated views are
        // cached, a projection is scanned again by its consumer.
        g.views.foreach { v =>
          val sums = v.aggs.map(a => a.name -> product(a.localFactors, a.childRefs.map(_.aggName)))
          viewFrames(v.id) =
            if (isProjection(plan.tree, v.id)) {
              val rows = plan.tree.sizeOf(v.id.from)
              frame.select(v.id.keys.map(col) ++ sums.map { case (name, p) => p.as(name) }: _*)
                .coalesce(((rows + ProjectionPartitionRows - 1) / ProjectionPartitionRows).max(1L).toInt)
            } else groupedSum(frame, v.id.keys, sums).persist(StorageLevel.MEMORY_AND_DISK)
        }

        // Multi-output pass: all queries of the group are evaluated by one
        // aggregate job, one grouping set per distinct group-by list, the
        // measure m of the group's i-th output as o<i>_m. It is collected
        // once; each query's rows are then picked by set and its columns
        // sliced on the driver.
        val outs = g.outputs.zipWithIndex
        val sets = g.outputs.map(_.query.groupBy).distinct
        if (sets.nonEmpty) {
          val combined = groupingSets(frame, sets.map { gb =>
            gb -> outs.filter(_._1.query.groupBy == gb).flatMap { case (o, i) =>
              o.query.measures.zip(o.terms).map { case (m, t) =>
                s"o${i}_${m.name}" -> product(t.localFactors, t.childRefs.map(_.aggName))
              }
            }
          })
          val setIdx = combined.schema.fieldIndex(SetColumn)
          val bySet = combined.collect().toSeq.groupBy(_.getInt(setIdx))
          outs.foreach { case (o, i) =>
            val gb = o.query.groupBy
            val cols = gb.map(k => k -> k) ++ o.query.measures.map(m => s"o${i}_${m.name}" -> m.name)
            val idx = cols.map { case (c, _) => combined.schema.fieldIndex(c) }
            val schema = StructType(cols.map { case (c, name) => combined.schema(c).copy(name = name) })
            val own = bySet.getOrElse(sets.indexOf(gb), Nil).map(r => Row.fromSeq(idx.map(r.get)))
            // A global set over an empty frame has no row; its SUMs are NULL.
            val data = if (own.isEmpty && gb.isEmpty) Seq(Row.fromSeq(idx.map(_ => null))) else own
            queryResults(o.query.name) = spark.createDataFrame(data.asJava, schema)
          }
        }
      }
    } catch {
      case e: Throwable =>
        unpersistComputed(viewFrames)
        throw e
    }

    Result(queryResults.toMap, viewFrames.toMap, groups, plan)
  }

  /** Whether view `id` is computed as a projection of its group's frame:
    * its keys include its source relation's declared key.
    */
  def isProjection(tree: JoinTree, id: ViewId): Boolean = {
    val key = tree.relationByName(id.from).key
    key.nonEmpty && key.forall(id.keys.contains)
  }
}
