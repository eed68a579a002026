package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.baseline.Baselines
import repro.core.exec.LmfaoExec
import repro.core.query.AggQuery
import repro.core.viewgen.ViewGeneration
import repro.ml.linreg.SigmaBatch
import repro.util.{Table, Timing}

/** T2 - Runtime of a full aggregate batch: LMFAO vs. the mainstream
  * strategies (paper sec 1: LMFAO outperforms engines that evaluate each
  * aggregate separately "by several orders of magnitude"; the expected shape
  * here is LMFAO < shared-join < per-query, with the per-query gap growing
  * with batch size).
  *
  * Each method runs once to warm up and then `Reps` times, the methods taking
  * turns in every round, all in one session; a row reports the median and
  * the range of the timed runs. Before each run, outside its timing, a GC
  * lets Spark's cleaner delete the shuffle files of the frames that earlier
  * runs dropped (Spark's own periodic GC comes every 30 minutes), and
  * PerQuery builds and collects one query at a time, so that a finished
  * query's frame and its shuffle files can go while the next query runs:
  * the shuffle files of PerQuery batches at SF 0.1 outgrow a disk with
  * 1.5 GB free.
  */
object T2BatchRuntime {

  /** Timed runs per method, after one warm-up run. */
  val Reps = 3

  /** @param seconds the timed runs' wall-clock seconds, in run order */
  final case class Row(dataset: String, method: String, queries: Int, seconds: Seq[Double]) {
    def median: Double = Timing.median(seconds)
  }

  def measure(ds: Workloads.Dataset, queries: Seq[AggQuery]): Seq[Row] = {
    val methods: Seq[(String, () => Unit)] = Seq(
      "LMFAO" -> { () =>
        val res = LmfaoExec.run(ds.tables, ViewGeneration.plan(ds.tree, queries))
        try res.queryResults.values.foreach(_.collect())
        finally res.cleanup()
      },
      "SharedJoin" -> { () =>
        val (d, results) = Baselines.runSharedJoin(ds.tree, ds.tables, queries)
        try results.values.foreach(_.collect()) finally d.unpersist()
      },
      "PerQuery" -> { () =>
        queries.foreach(q => Baselines.runPerQuery(ds.tree, ds.tables, Seq(q)).values.foreach(_.collect()))
      },
    )
    val rounds = (0 to Reps).map(_ => methods.map { case (_, body) => System.gc(); Timing.timed(body())._2 })
    methods.indices.map { m =>
      Row(ds.name, methods(m)._1, queries.size, rounds.drop(1).map(_(m)))
    }
  }

  def run(spark: SparkSession, sf: Double): Table = {
    val batches = Seq(
      (Workloads.favorita(spark, sf), SigmaBatch.queries(Workloads.favoritaLr)),
      (Workloads.retailer(spark, sf), SigmaBatch.queries(Workloads.retailerLr)),
    )
    val rows = batches.flatMap { case (ds, queries) =>
      ds.cache()
      val measured = try measure(ds, queries) finally ds.uncache()
      val perQuery = measured.find(_.method == "PerQuery").get.median
      measured.map { r =>
        Seq(r.dataset, r.method, r.queries.toString, Timing.fmt(r.median),
          s"${Timing.fmt(r.seconds.min)}-${Timing.fmt(r.seconds.max)}", f"${perQuery / r.median}%.1fx")
      }
    }
    // Each batch's plan as the engine runs it: its views and its output
    // pass's fold decision.
    val plans = batches.flatMap { case (ds, queries) =>
      s"${ds.name} plan:" +: LmfaoExec.explain(ViewGeneration.plan(ds.tree, queries)).split("\n").map("  " + _)
    }
    Table(
      s"T2: LR aggregate-batch runtime at SF=$sf (lower is better)",
      Seq("dataset", "method", "queries", s"seconds (median of $Reps)", "min-max", "speedup vs PerQuery"),
      rows,
      notes = Seq(
        "Paper claim: evaluating the batch with shared views beats per-aggregate",
        "execution by orders of magnitude on large batches; shape reproduced if",
        "LMFAO < SharedJoin < PerQuery with a widening per-query gap.",
      ) ++ plans,
    )
  }
}
