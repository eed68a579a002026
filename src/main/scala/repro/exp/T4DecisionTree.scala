package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.baseline.Baselines
import repro.core.query.{AggQuery, CmpOp, Measure, Predicate}
import repro.ml.tree.{DecisionTree, FeatureKind, NodeBatch, SplitFinder}
import repro.util.{Table, Timing}

/** T4 - Decision-tree node batches (CART).
  *
  * Per node, LMFAO answers one grouped query per feature in a single shared
  * pass, covering all of the paper's thousands of conceptual per-(feature,
  * threshold) aggregates at once. Two baselines:
  *   - PerFeature: one independent join+aggregate job per feature (a mild
  *     baseline that still benefits from grouping);
  *   - PerCondition: the paper's per-aggregate strategy - one join+aggregate
  *     query per candidate condition (sampled and extrapolated; running all
  *     of them takes hours, which is exactly the paper's point).
  */
object T4DecisionTree {

  def run(spark: SparkSession, sf: Double): Table = {
    val ds = Workloads.retailer(spark, sf).cache()
    try {
      val features = Workloads.retailerDt
      val label = Workloads.retailerDtLabel

      // Root-node split: LMFAO batch, warm, as T2 times it.
      val (lmfaoStats, lmfaoRuns) = Timing.warm(T2BatchRuntime.Reps) {
        DecisionTree.nodeStats(ds.tree, ds.tables, features, label, Nil)
      }
      val tLmfao = Timing.median(lmfaoRuns)
      val lmfaoSplit = SplitFinder.bestSplit(lmfaoStats, features)

      // Root-node split: per-feature independent join+aggregate jobs.
      val (baseStats, tPerFeature) = Timing.timed {
        val batch = NodeBatch.queries(features, label, Nil)
        NodeBatch.stats(batch, Baselines.runPerQuery(ds.tree, ds.tables, batch))
      }
      val baseSplit = SplitFinder.bestSplit(baseStats, features)
      require(lmfaoSplit.map(_.predicate) == baseSplit.map(_.predicate),
        s"engines disagree on the best split: $lmfaoSplit vs $baseSplit")

      // Per-condition baseline (paper's per-aggregate execution): sample
      // conditions evenly, run each as its own join+aggregate job, extrapolate.
      val allConds: Seq[Predicate] = features.flatMap { f =>
        val vs = lmfaoStats(f.attr).map(_.value).sorted
        f.kind match {
          case FeatureKind.Continuous => vs.init.map(v => Predicate(f.attr, CmpOp.Le, v))
          case FeatureKind.Categorical => vs.map(v => Predicate(f.attr, CmpOp.Eq, v))
        }
      }
      val sampleSize = math.min(24, allConds.size)
      val sampled = (0 until sampleSize).map(i => allConds(i * allConds.size / sampleSize))
      val global = AggQuery("cond", Nil,
        Seq(Measure.count("cnt"), Measure.sum("sy", label), Measure.sumSquare("sy2", label)))
      val (_, tSample) = Timing.timed {
        sampled.foreach { cond =>
          Baselines.aggOver(Baselines.joinAll(ds.tree, ds.tables).where(cond.column), global).collect()
        }
      }
      val tPerCondition = tSample / sampleSize * allConds.size

      // Full depth-2 tree through the engine, warm.
      val (trained, treeRuns) = Timing.warm(T2BatchRuntime.Reps) {
        DecisionTree.train(ds.tree, ds.tables, features, label, maxDepth = 2, minLeaf = 10)
      }
      def range(runs: Seq[Double]) = s"${Timing.fmt(runs.min)}-${Timing.fmt(runs.max)}"

      val candidates = lmfaoStats.map { case (a, vs) => a -> vs.size }
      val conceptual = NodeBatch.conceptualAggregates(candidates, features)

      Table(
        s"T4: CART node batches at SF=$sf",
        Seq("experiment", "method", "jobs", "conceptual aggs", "seconds", "min-max", "speedup vs LMFAO"),
        Seq(
          Seq("root split", "LMFAO", features.size.toString, conceptual.toString,
            Timing.fmt(tLmfao), range(lmfaoRuns), "1.0x"),
          Seq("root split", "PerFeature jobs", features.size.toString, conceptual.toString,
            Timing.fmt(tPerFeature), "-", f"${tPerFeature / tLmfao}%.1fx"),
          Seq("root split", s"PerCondition (extrapolated from $sampleSize)", allConds.size.toString,
            conceptual.toString, Timing.fmt(tPerCondition), "-", f"${tPerCondition / tLmfao}%.1fx"),
          Seq(s"depth-2 tree (${trained.nodes.size} nodes in ${trained.root.depth + 1} LMFAO plans)",
            "LMFAO", "-", "-", Timing.fmt(Timing.median(treeRuns)), range(treeRuns), "-"),
        ),
        notes = Seq(
          s"Best split (LMFAO and baseline agree): ${lmfaoSplit.map(s => s.predicate.sql).getOrElse("none")}.",
          "Paper anchor: 3,141 conceptual aggregates per node on the 43-attribute",
          s"Retailer; the lite schema explores $conceptual here, covered by ${features.size} grouped queries.",
          "PerCondition is the paper's per-aggregate comparison: its cost scales with",
          "the number of candidate conditions, LMFAO's with the number of features.",
          s"LMFAO rows: median and range of ${T2BatchRuntime.Reps} timed runs after a warm-up; the baselines run once.",
        ),
      )
    } finally ds.uncache()
  }
}
