package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.baseline.Baselines
import repro.core.exec.LmfaoExec
import repro.core.viewgen.ViewGeneration
import repro.ml.linreg.SigmaBatch
import repro.util.{Table, Timing}

/** T2 - Runtime of a full aggregate batch: LMFAO vs. the mainstream
  * strategies (paper sec 1: LMFAO outperforms engines that evaluate each
  * aggregate separately "by several orders of magnitude"; the expected shape
  * here is LMFAO < shared-join < per-query, with the per-query gap growing
  * with batch size).
  */
object T2BatchRuntime {

  final case class Row(dataset: String, method: String, queries: Int, seconds: Double)

  def measure(ds: Workloads.Dataset, queries: Seq[repro.core.query.AggQuery]): Seq[Row] = {
    val (_, lmfao) = Timing.timed {
      val plan = ViewGeneration.plan(ds.tree, queries)
      val res = LmfaoExec.run(ds.tables, plan)
      try res.queryResults.values.foreach(_.collect())
      finally res.cleanup()
    }
    val (_, sharedJoin) = Timing.timed {
      val (d, results) = Baselines.runSharedJoin(ds.tree, ds.tables, queries)
      try results.values.foreach(_.collect()) finally d.unpersist()
    }
    val (_, perQuery) = Timing.timed {
      Baselines.runPerQuery(ds.tree, ds.tables, queries).values.foreach(_.collect())
    }
    Seq("LMFAO" -> lmfao, "SharedJoin" -> sharedJoin, "PerQuery" -> perQuery)
      .map { case (method, t) => Row(ds.name, method, queries.size, t) }
  }

  def run(spark: SparkSession, sf: Double): Table = {
    val rows = Seq(
      (Workloads.favorita(spark, sf), SigmaBatch.queries(Workloads.favoritaLr)),
      (Workloads.retailer(spark, sf), SigmaBatch.queries(Workloads.retailerLr)),
    ).flatMap { case (ds, queries) =>
      ds.cache()
      val measured = try measure(ds, queries) finally ds.uncache()
      val perQuery = measured.find(_.method == "PerQuery").get.seconds
      measured.map { r =>
        Seq(r.dataset, r.method, r.queries.toString, Timing.fmt(r.seconds), f"${perQuery / r.seconds}%.1fx")
      }
    }
    Table(
      s"T2: LR aggregate-batch runtime at SF=$sf (lower is better)",
      Seq("dataset", "method", "queries", "seconds", "speedup vs PerQuery"),
      rows,
      notes = Seq(
        "Paper claim: evaluating the batch with shared views beats per-aggregate",
        "execution by orders of magnitude on large batches; shape reproduced if",
        "LMFAO < SharedJoin < PerQuery with a widening per-query gap.",
      ),
    )
  }
}
