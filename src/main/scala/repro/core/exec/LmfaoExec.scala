package repro.core.exec

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.broadcast
import org.apache.spark.sql.types.StructType
import org.apache.spark.storage.StorageLevel

import repro.core.group.{DependencyGraph, ViewGroup}
import repro.core.query.Predicate
import repro.core.query.SumOfProducts.{groupedSum, product}
import repro.core.viewgen.{Plan, ViewId}

/** The LMFAO execution layer on Spark.
  *
  * Each multi-output view group becomes one join of the node's relation with
  * the group's incoming view frames; every merged view of the group is a
  * single grouped SUM-of-products pass over that shared frame, and *all query
  * outputs of the group that share a group-by list are combined into one
  * such pass* (the paper's multi-output plans: e.g. the 36 scalar Σ
  * aggregates of a regression batch become one job). Every view is
  * materialised (cached), exactly as LMFAO's engine computes and stores each
  * view; Catalyst/Tungsten play the role of the paper's code-generation layer.
  *
  * An incoming view is broadcast when its relation is smaller than the
  * group's node by `JoinTree.sizes`: the view has at most |R_from| rows and
  * the many-to-one join leaves at most |R_node| rows, so the view is the
  * smaller side. Each output pass is collected once, and every query result
  * is returned as a driver-local frame.
  */
object LmfaoExec {

  /** Execution result: per-query driver-local DataFrames (collecting one
    * starts no Spark job) plus the materialised views and the groups that
    * produced them (for inspection and benchmarks).
    */
  final case class Result(
      queryResults: Map[String, DataFrame],
      viewFrames: Map[ViewId, DataFrame],
      groups: Seq[ViewGroup],
      caches: Seq[DataFrame],
  ) {
    /** Unpersist every frame cached by the run. */
    def cleanup(): Unit = {
      viewFrames.values.foreach(_.unpersist())
      caches.foreach(_.unpersist())
    }
  }

  /** Run a plan over the given base relations.
    *
    * @param tables       one DataFrame per relation of the plan's join tree
    * @param persistViews allow caching of multi-consumer views and shared
    *                     group frames (on by default)
    */
  def run(tables: Map[String, DataFrame], plan: Plan, persistViews: Boolean = true): Result = {
    plan.tree.relations.foreach { r =>
      require(tables.contains(r.name), s"missing DataFrame for relation ${r.name}")
      r.attrs.foreach(a => require(tables(r.name).columns.contains(a),
        s"relation ${r.name} DataFrame is missing attribute $a"))
    }

    // Per-attribute predicates push down to every relation containing the
    // attribute (sound for natural joins; see DESIGN.md).
    val filters = plan.queries.flatMap(_.filters).distinct
    require(
      plan.queries.map(_.filters.toSet).distinct.size <= 1,
      "all queries of one batch must share the same filter set (CART node batches do)")
    val filtered = applyFilters(plan.tree, tables, filters)

    val groups = DependencyGraph.groups(plan)
    val viewFrames = mutable.Map.empty[ViewId, DataFrame]
    val queryResults = mutable.Map.empty[String, DataFrame]
    val caches = mutable.ArrayBuffer.empty[DataFrame]
    def cache(df: DataFrame): DataFrame = {
      val f = df.persist(StorageLevel.MEMORY_AND_DISK)
      caches += f
      f
    }

    // Output passes run here, so a failing job must not leave cached frames.
    try groups.foreach { g =>
      val base = filtered(g.node)
      val frame = g.incoming.foldLeft(base) { (acc, vid) =>
        val vf = viewFrames(vid)
        val side = if (plan.tree.sizeOf(vid.from) < plan.tree.sizeOf(g.node)) broadcast(vf) else vf
        val keys = acc.columns.toSet intersect vid.keys.toSet
        require(keys.nonEmpty, s"no join keys between ${g.node} frame and ${vid.label}")
        acc.join(side, keys.toSeq.sorted, "inner")
      }
      // One aggregate pass per merged view plus one per distinct output
      // group-by; share the join frame when there is more than one pass.
      val outputPasses = g.outputs.map(_.query.groupBy).distinct
      val shared =
        if (persistViews && g.views.size + outputPasses.size > 1 && g.incoming.nonEmpty) cache(frame)
        else frame

      // Materialise every view, as LMFAO itself does: empirically the cached
      // small aggregates beat re-inlining their subplans into each consumer
      // (and they are read by the dependency-graph successors).
      g.views.foreach { v =>
        val df = groupedSum(shared, v.id.keys,
          v.aggs.map(a => a.name -> product(a.localFactors, a.childRefs.map(_.aggName))))
        viewFrames(v.id) =
          if (persistViews) df.persist(StorageLevel.MEMORY_AND_DISK) else df
      }

      // Multi-output pass: all queries of the group sharing a group-by list
      // are evaluated by one aggregate job, measure m of the i-th as o<i>_m,
      // collected once; each query's columns are then sliced on the driver.
      outputPasses.foreach { gb =>
        val outs = g.outputs.filter(_.query.groupBy == gb).zipWithIndex
        val combined = groupedSum(shared, gb, outs.flatMap { case (o, i) =>
          o.query.measures.zip(o.terms).map { case (m, t) =>
            s"o${i}_${m.name}" -> product(t.localFactors, t.childRefs.map(_.aggName))
          }
        })
        val rows = combined.collect().toSeq
        outs.foreach { case (o, i) =>
          val cols = gb.map(k => k -> k) ++ o.query.measures.map(m => s"o${i}_${m.name}" -> m.name)
          val idx = cols.map { case (c, _) => combined.schema.fieldIndex(c) }
          val schema = StructType(cols.map { case (c, name) => combined.schema(c).copy(name = name) })
          queryResults(o.query.name) = combined.sparkSession.createDataFrame(
            rows.map(r => Row.fromSeq(idx.map(r.get))).asJava, schema)
        }
      }
    } catch {
      case e: Throwable =>
        (viewFrames.values ++ caches).foreach(_.unpersist())
        throw e
    }

    Result(queryResults.toMap, viewFrames.toMap, groups, caches.toSeq)
  }

  /** Push each predicate to every relation that contains its attribute. */
  private def applyFilters(tree: repro.core.schema.JoinTree, tables: Map[String, DataFrame],
                           filters: Seq[Predicate]): Map[String, DataFrame] =
    tables.map { case (name, df) =>
      val rel = tree.relationByName(name)
      val applicable = filters.filter(p => rel.has(p.attr))
      name -> applicable.foldLeft(df)((acc, p) => acc.where(p.column))
    }
}
