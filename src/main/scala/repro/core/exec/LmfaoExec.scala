package repro.core.exec

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
import org.apache.spark.storage.StorageLevel

import repro.core.group.{DependencyGraph, ViewGroup}
import repro.core.query.SumOfProducts.{groupedSum, groupingSets, product, SetColumn}
import repro.core.schema.JoinTree
import repro.core.viewgen.{OutputPass, Plan, ViewId}

/** The LMFAO execution layer on Spark.
  *
  * Each multi-output view group becomes one join of the node's relation with
  * the group's incoming view frames; every merged view of the group is a
  * single grouped SUM-of-products pass over that frame, and *all query
  * outputs of the group are combined into one pass* (the paper's
  * multi-output plans: e.g. the 86 queries of Retailer's Σ batch become one
  * job). The pass's grouping sets are a [[repro.core.viewgen.OutputPass]]:
  * the group-by sets whose domain hints are small fold into one cube set
  * over the union of their attributes, and each other set is a grouping set
  * of its own; each set sums every distinct product of its queries once. A
  * pass of one set is a plain grouped aggregate. The pass is collected once,
  * and one decoder rolls every query up from its set's rows by its group-by
  * attributes. Catalyst/Tungsten play the role of the paper's
  * code-generation layer.
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
  * choice is then a guess, and it never changes answers. Every query result
  * is returned as a driver-local frame, which `AggQuery.collect` reads
  * straight from its rows.
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
          joinSide(plan.tree, vid, g.node) match {
            case BroadcastView => acc.join(broadcast(vf), keys, "inner")
            case BroadcastFrame => broadcast(acc).join(vf, keys, "inner")
            case Shuffle => acc.join(vf, keys, "inner")
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

        // Multi-output pass: all queries of the group are one aggregate job
        // over its grouping sets, collected once and decoded on the driver.
        if (g.outputs.nonEmpty) {
          val pass = OutputPass(plan.tree, g.outputs)
          val agg = groupingSets(frame, pass.sets.zipWithIndex.map { case (set, i) =>
            set.keys -> set.sums.zipWithIndex.map { case (t, j) =>
              sumName(i, j) -> product(t.localFactors, t.childRefs.map(_.aggName))
            }
          })
          queryResults ++= decode(spark, pass, agg.schema, agg.collect())
        }
      }
    } catch {
      case e: Throwable =>
        unpersistComputed(viewFrames)
        throw e
    }

    Result(queryResults.toMap, viewFrames.toMap, groups, plan)
  }

  /** The column of set i's j-th sum in an output pass's job. */
  private def sumName(i: Int, j: Int): String = s"lmfao_s${i}_$j"

  /** Decode an output pass's collected rows into one driver-local frame per
    * query: each query's rows are its source set's rows (the cube's, or its
    * own set's) rolled up by its group-by attributes. A SUM adds the sums
    * that are not NULL and is NULL when all are; a global query with no row
    * gets one row of NULL sums, as SQL's SUM over no rows.
    */
  private def decode(spark: SparkSession, pass: OutputPass, schema: StructType,
                     rows: Array[Row]): Seq[(String, DataFrame)] = {
    val setIdx = schema.fieldIndex(SetColumn)
    val bySet = rows.groupBy(_.getInt(setIdx))
    for {
      (set, i) <- pass.sets.zipWithIndex
      o <- set.outputs
    } yield {
      val keys = o.query.groupBy.map(schema.fieldIndex)
      val sums = o.terms.map(t => schema.fieldIndex(sumName(i, set.sumIndex(t))))
      val groups = mutable.LinkedHashMap.empty[Seq[Any], Array[java.lang.Double]]
      bySet.getOrElse(i, Array.empty[Row]).foreach { r =>
        val acc = groups.getOrElseUpdate(keys.map(r.get), new Array[java.lang.Double](sums.size))
        sums.indices.foreach { j =>
          if (!r.isNullAt(sums(j))) acc(j) = r.getDouble(sums(j)) + (if (acc(j) == null) 0.0 else acc(j).doubleValue)
        }
      }
      if (groups.isEmpty && keys.isEmpty) groups(Nil) = new Array[java.lang.Double](sums.size)
      val outSchema = StructType(o.query.groupBy.map(schema(_)) ++
        o.query.measures.map(m => StructField(m.name, DoubleType)))
      val data = groups.map { case (k, v) => Row.fromSeq(k ++ v) }.toSeq
      o.query.name -> spark.createDataFrame(data.asJava, outSchema)
    }
  }

  /** Which side of a group's join with an incoming view is broadcast. */
  private sealed abstract class JoinSide(val label: String)
  private case object BroadcastView extends JoinSide("broadcast view")
  private case object BroadcastFrame extends JoinSide("broadcast frame")
  private case object Shuffle extends JoinSide("shuffle")

  /** The smaller side by `JoinTree.sizes`; both are shuffled when the sizes
    * are equal or either is missing.
    */
  private def joinSide(tree: JoinTree, vid: ViewId, node: String): JoinSide =
    (tree.sizes.get(vid.from), tree.sizes.get(node)) match {
      case (Some(from), Some(n)) if from < n => BroadcastView
      case (Some(from), Some(n)) if n < from => BroadcastFrame
      case _ => Shuffle
    }

  /** The plan as [[run]] executes it, one line per group in run order: its
    * incoming views, the join side each is broadcast on and the group that
    * produces it (by `DependencyGraph.edges`); each view and its sums; and
    * for an output group its pass: the cube's keys U, their hint product
    * against the bound, the folded and the exploded group-by sets, and the
    * sum columns before and after dedup.
    */
  def explain(plan: Plan): String = {
    val groups = DependencyGraph.groups(plan)
    val producer = DependencyGraph.edges(groups).groupMap(_._2)(_._1)
    def set(keys: Seq[String]) = keys.mkString("(", ",", ")")
    groups.zipWithIndex.map { case (g, i) =>
      val sources = producer.getOrElse(g, Nil).map(groups.indexOf).sorted
      val joins = g.incoming.map(v => s"${v.label} ${joinSide(plan.tree, v, g.node).label}").mkString(", ")
      val head = s"#$i ${g.direction.fold(s"${g.node} outputs")(d => s"${g.node}->$d")}" +
        (if (sources.isEmpty) "" else sources.mkString(" after #", ", #", "")) +
        (if (joins.isEmpty) "" else s"; joins $joins")
      val views = g.views.map { v =>
        s"; ${v.id.label} ${if (isProjection(plan.tree, v.id)) "projection" else "aggregate"} of ${v.aggs.size} sums"
      }
      val out = Option.when(g.outputs.nonEmpty) {
        val pass = OutputPass(plan.tree, g.outputs)
        val cube =
          if (pass.folded.isEmpty) "no cube"
          else s"cube ${set(pass.sets.head.keys)} hint ${pass.hint} <= ${pass.bound} folds " +
            pass.folded.map(set).mkString(" ")
        val exploded = if (pass.exploded.isEmpty) "" else s"; explodes ${pass.exploded.map(set).mkString(" ")}"
        s"; ${g.outputs.size} queries: $cube$exploded; sums ${pass.measures} -> ${pass.sums}"
      }
      head + views.mkString + out.getOrElse("")
    }.mkString("\n")
  }

  /** Whether view `id` is computed as a projection of its group's frame:
    * its keys include its source relation's declared key.
    */
  def isProjection(tree: JoinTree, id: ViewId): Boolean = {
    val key = tree.relationByName(id.from).key
    key.nonEmpty && key.forall(id.keys.contains)
  }
}
