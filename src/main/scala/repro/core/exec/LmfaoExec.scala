package repro.core.exec

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col}
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
import org.apache.spark.storage.StorageLevel

import repro.core.group.{DependencyGraph, ViewGroup}
import repro.core.query.SumOfProducts.{groupedSum, groupingSets, product, SetColumn}
import repro.core.schema.JoinTree
import repro.core.viewgen.{OutputPass, Plan, Term, ViewId}

/** The LMFAO execution layer on Spark.
  *
  * Each multi-output view group becomes one join of the node's relation with
  * the group's incoming views; every aggregated view of the group is a
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
  * pass over it.
  *
  * A view whose keys include the declared key of its node's relation is a
  * projection: each row of the relation's join with its incoming views
  * gives one row of the view, with no aggregate and no shuffle. When the
  * keys hold, every group of the aggregate would hold exactly one row: the
  * relation has one row per key value, and an incoming view has one row per
  * value of its keys, whose attributes other than its join keys are
  * group-by attributes that the view generation also carries on the
  * outgoing view, or that the join keys fix. A broken key costs rows, not
  * answers: the projection then keeps several rows of one group, but every
  * measure multiplies each incoming view's partial exactly once, so each
  * output is linear in each view's rows and split rows add up to the same
  * sums.
  *
  * A projection is never a frame of its own. As in the paper, where a view
  * over a keyed relation is a lookup into it, the frame that reads
  * V_{R→node} *inlines* it: it joins R's relation itself, coalesced to one
  * partition per million rows of R by `JoinTree.sizes` (one partition when
  * the size is missing), folds R's own incoming views into the same frame,
  * recursively, and every expression that reads one of V's sums reads the
  * product that defines it instead, over the frame's columns (one
  * `withColumns` per inlined view was measured slower on Retailer's Σ
  * batch). The joins are the same; the rows of the frame are those of the
  * join with V. A chain of projections
  * (Stores→Transactions→Sales) thus becomes joins of one frame with each
  * relation, none of them inside another's broadcast, so Spark runs the
  * broadcasts side by side instead of one after another. A group whose
  * views are all projections runs nothing itself.
  *
  * Each join of the fold broadcasts its smaller side by `JoinTree.sizes`,
  * against the node whose frame is folded. The relation R_from, or the
  * incoming view V_{from→to}, has at most |R_from| rows, and the frame
  * before the join, the node's relation joined with what was folded in
  * before, has at most |R_node| rows. Both bounds hold when every view
  * carries only attributes that its join keys fix, so that each join is
  * many-to-one. The joined side is broadcast when |R_from| < |R_node|, the
  * frame when |R_node| < |R_from| (Transactions receiving
  * V_{Sales→Transactions}), and both sides are shuffled when the sizes are
  * equal or either is missing. A view that carries other attributes can
  * break the bounds; the choice is then a guess, and it never changes
  * answers. Every query result is returned as a driver-local frame, which
  * `AggQuery.collect` reads straight from its rows.
  *
  * Groups run one after another on the calling thread, in group order, so
  * every Spark job carries the caller's local properties. If a pass fails,
  * the views the run cached are unpersisted and its error is rethrown; later
  * groups never start.
  *
  * Each run computes every view of its plan: a batch reads no view of an
  * earlier run. Over Favorita and Retailer, the models' batches root every
  * query at the fact table ([[repro.core.viewgen.RootAssignment]]), where
  * every view is a projection, so those runs cache nothing and each is one
  * frame over the fact table with every dimension relation joined in.
  */
object LmfaoExec {

  /** Rows of an inlined relation per partition. */
  private val ProjectionPartitionRows = 1000000L

  /** Execution result: per-query driver-local DataFrames (collecting one
    * starts no Spark job) plus the groups that produced them and the view
    * frames (for inspection and benchmarks).
    *
    * Spark keys its cache by plan, so two live results that compute an
    * equal aggregated view over the same input frames share one cache
    * entry, and the first `cleanup()` drops it; the other result's view is
    * then computed again when read, with the same answers.
    *
    * @param plan       the plan that was run
    * @param aggregated the cached frame of each aggregated view
    */
  final class Result private[LmfaoExec] (
      val queryResults: Map[String, DataFrame],
      val groups: Seq[ViewGroup],
      val plan: Plan,
      aggregated: Map[ViewId, DataFrame],
      tables: Map[String, DataFrame],
  ) {
    /** Every view's frame: an aggregated view's cached frame, and a `select`
      * of a projection view's keys and sums over the fold of its relation,
      * the frame its consumers inline. The selects are built when this is
      * first read; a run builds none.
      */
    lazy val viewFrames: Map[ViewId, DataFrame] = plan.views.map { v =>
      v.id -> aggregated.getOrElse(v.id,
        fold(plan, tables, aggregated)(relation(plan.tree, tables, v.id.from), joins(plan, v.id.from, v.incoming))
          .select(v.id.keys.map(col) ++ v.aggs.map(a => term(plan)(a).as(a.name)): _*))
    }.toMap

    /** Unpersist every view this run cached. */
    def cleanup(): Unit = aggregated.values.foreach(_.unpersist())
  }

  /** Run a plan over the given base relations.
    *
    * Every aggregated view the run computes is cached, and nothing else is:
    * each projection view is inlined into the frames that read it, and each
    * view pass and each output pass reads its group's join frame directly.
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
    val aggregated = mutable.Map.empty[ViewId, DataFrame]
    val queryResults = mutable.Map.empty[String, DataFrame]

    // One pass over the groups, in group order: a failing pass throws at
    // once, and the views cached so far are unpersisted. A group of
    // projections only builds nothing: its consumers inline it.
    try {
      groups.filter(runs(plan)).foreach { g =>
        val frame = fold(plan, tables, aggregated)(tables(g.node), joins(plan, g.node, g.incoming))
        g.views.filterNot(v => isProjection(plan.tree, v.id)).foreach { v =>
          aggregated(v.id) = groupedSum(frame, v.id.keys, v.aggs.map(a => a.name -> term(plan)(a)))
            .persist(StorageLevel.MEMORY_AND_DISK)
        }

        // Multi-output pass: all queries of the group are one aggregate job
        // over its grouping sets, collected once and decoded on the driver.
        if (g.outputs.nonEmpty) {
          val pass = OutputPass(plan.tree, g.outputs)
          val agg = groupingSets(frame, pass.sets.zipWithIndex.map { case (set, i) =>
            set.keys -> set.sums.zipWithIndex.map { case (t, j) => sumName(i, j) -> term(plan)(t) }
          })
          queryResults ++= decode(spark, pass, agg.schema, agg.collect())
        }
      }
    } catch {
      case e: Throwable =>
        aggregated.values.foreach(_.unpersist())
        throw e
    }

    new Result(queryResults.toMap, groups, plan, aggregated.toMap, tables)
  }

  /** Whether group `g` runs anything: it has outputs or an aggregated view.
    * A group of projections only is inlined into the frames that read it.
    */
  private def runs(plan: Plan)(g: ViewGroup): Boolean =
    g.outputs.nonEmpty || g.views.exists(v => !isProjection(plan.tree, v.id))

  /** One join of a fold: `view` joined as its cached frame or, when
    * `inlined`, as its source relation, with `side` broadcast.
    */
  private final case class Join(view: ViewId, inlined: Boolean, side: JoinSide)

  /** The joins of a frame at `node` that reads `incoming`, in fold order.
    * An aggregated view is one join. A projection view V_{R→to} is inlined:
    * R's relation is joined, and then the joins of R's own incoming views.
    * Every join is sided by the sizes of R and `node`.
    */
  private def joins(plan: Plan, node: String, incoming: Seq[ViewId]): Seq[Join] = incoming.flatMap { vid =>
    val inlined = isProjection(plan.tree, vid)
    Join(vid, inlined, joinSide(plan.tree, vid.from, node)) +:
      (if (inlined) joins(plan, node, plan.viewById(vid).incoming) else Nil)
  }

  /** `acc` joined with each of `js` in turn: an aggregated view's cached
    * frame on the keys it shares with the frame, an inlined relation on its
    * edge's join keys.
    */
  private def fold(plan: Plan, tables: Map[String, DataFrame], aggregated: collection.Map[ViewId, DataFrame])(
      acc: DataFrame, js: Seq[Join]): DataFrame =
    js.foldLeft(acc) { (acc, j) =>
      val (other, keys) =
        if (j.inlined) (relation(plan.tree, tables, j.view.from), plan.tree.joinKeys(j.view.from, j.view.to))
        else (aggregated(j.view), (acc.columns.toSet intersect j.view.keys.toSet).toSeq.sorted)
      require(keys.nonEmpty, s"no join keys between the frame and ${j.view.label}")
      j.side match {
        case BroadcastSide => acc.join(broadcast(other), keys, "inner")
        case BroadcastFrame => broadcast(acc).join(other, keys, "inner")
        case Shuffle => acc.join(other, keys, "inner")
      }
    }

  /** Relation `name`'s attributes, coalesced to one partition per
    * `ProjectionPartitionRows` of its size (one without a size).
    */
  private def relation(tree: JoinTree, tables: Map[String, DataFrame], name: String): DataFrame = {
    val rows = tree.sizeOf(name)
    tables(name).select(tree.relationByName(name).attrs.map(col): _*)
      .coalesce(((rows + ProjectionPartitionRows - 1) / ProjectionPartitionRows).max(1L).toInt)
  }

  /** A term's product over a frame: its local factors times each partial
    * it reads, which is the partial's column in an aggregated view or, when
    * the view is a projection and so inlined into the frame, the term that
    * defines the partial, over the frame's columns.
    */
  private def term(plan: Plan)(t: Term): Column =
    product(t.localFactors, t.childRefs.map { ref =>
      if (!isProjection(plan.tree, ref.view)) col(ref.aggName)
      else term(plan)(plan.viewById(ref.view).aggs.find(_.name == ref.aggName).get)
    })

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

  /** Which side of a join in a group's fold is broadcast: the joined
    * relation or view, the group's frame, or neither.
    */
  private sealed abstract class JoinSide {
    def label(joined: String): String = this match {
      case BroadcastSide => s"broadcast $joined"
      case BroadcastFrame => "broadcast frame"
      case Shuffle => "shuffle"
    }
  }
  private case object BroadcastSide extends JoinSide
  private case object BroadcastFrame extends JoinSide
  private case object Shuffle extends JoinSide

  /** The smaller of relation `from` and the frame at `node` by
    * `JoinTree.sizes`; both are shuffled when the sizes are equal or either
    * is missing.
    */
  private def joinSide(tree: JoinTree, from: String, node: String): JoinSide =
    (tree.sizes.get(from), tree.sizes.get(node)) match {
      case (Some(f), Some(n)) if f < n => BroadcastSide
      case (Some(f), Some(n)) if n < f => BroadcastFrame
      case _ => Shuffle
    }

  /** The plan as [[run]] executes it, one line per group in run order.
    * A group that runs lists the groups whose cached views it reads, and
    * every join of its fold in fold order with the side it broadcasts: each
    * aggregated view, and for each inlined projection view the relation it
    * joins. A group of projections only is marked as inlined into the
    * groups whose frames join its relation. Each line then gives the
    * group's views and their sums, and for an output group its pass: the
    * cube's keys U, their hint product against the bound, the folded and the
    * exploded group-by sets, and the sum columns before and after dedup.
    */
  def explain(plan: Plan): String = {
    val groups = DependencyGraph.groups(plan)
    val producer = groups.zipWithIndex.flatMap { case (g, i) => g.produced.map(_ -> i) }.toMap
    val folds = groups.map(g => if (runs(plan)(g)) joins(plan, g.node, g.incoming) else Nil)
    def set(keys: Seq[String]) = keys.mkString("(", ",", ")")
    groups.zipWithIndex.map { case (g, i) =>
      val name = s"#$i ${g.direction.fold(s"${g.node} outputs")(d => s"${g.node}->$d")}"
      val head =
        if (!runs(plan)(g))
          folds.indices.filter(k => folds(k).exists(j => g.produced.contains(j.view)))
            .mkString(s"$name inlined into #", ", #", "")
        else {
          val sources = folds(i).filterNot(_.inlined).map(j => producer(j.view)).distinct.sorted
          val joined = folds(i).map { j =>
            if (j.inlined) s"${j.view.from} for ${j.view.label} ${j.side.label("relation")}"
            else s"${j.view.label} ${j.side.label("view")}"
          }
          name + (if (sources.isEmpty) "" else sources.mkString(" after #", ", #", "")) +
            (if (joined.isEmpty) "" else joined.mkString("; joins ", ", ", ""))
        }
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

  /** Whether view `id` is a projection, inlined into the frames that read
    * it: its keys include its source relation's declared key.
    */
  def isProjection(tree: JoinTree, id: ViewId): Boolean = {
    val key = tree.relationByName(id.from).key
    key.nonEmpty && key.forall(id.keys.contains)
  }
}
