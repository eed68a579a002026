package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable
import scala.util.{Failure, Success, Try}

import org.apache.spark.sql.SparkSession

import repro.core.baseline.Baselines
import repro.core.exec.LmfaoExec
import repro.core.group.{DependencyGraph, ViewGroup}
import repro.core.viewgen.ViewGeneration
import repro.jobs.JobRunner

/** Benchmark entry point.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  * }}}
  *
  * Prints every metric as `name value unit`, then, as the last line, one JSON
  * object with `correct`, `attempted`, `failed` and `metrics`. `--trace 1`
  * reports the per-layer metrics and writes the traced run's spans to
  * `<out>/trace-<workload>-<seed>.json`.
  */
object Main {
  /** Data set-ups per run; `setup_s` counts their median. */
  val DataReps = 3
  /** Fewest timed operations per run, however long they take. */
  val MinOps = 2

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") match {
        case "0" => false
        case "1" => true
        case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
      },
      Paths.get(kv.getOrElse("out", ".")))
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val task = Tasks.byName(opts.workload).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${opts.workload}; known: ${Tasks.all.map(_.name).mkString(", ")}"))
    val t0 = System.nanoTime()
    JobRunner.withSpark(Array(task.sf.toString)) { (spark, _) =>
      val start = secondsSince(t0)
      note(f"spark session started in $start%.3f s")
      new Bench(spark, task, opts).run(start)
    }
    // Spark may leave non-daemon threads behind after stop().
    sys.exit(0)
  }

  def note(s: String): Unit = Console.err.println(s"[perfbench] $s")

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  val MB = 1024.0 * 1024.0
}

/** One run of one workload. */
final class Bench[A](spark: SparkSession, task: Task[A], opts: Main.Opts) {
  import Main._

  private val collector = new Collector(spark.sparkContext)
  private var attempted = 0
  private var failed = 0
  private var checksHold = true

  private def check(what: String, ok: Boolean): Unit = {
    note(s"check ${if (ok) "passed" else "FAILED"}: $what")
    checksHold &&= ok
  }

  /** Count one operation's outcome: it fails if it threw or if its answer
    * differs from the reference.
    */
  private def record(outcome: Try[A], ref: A): Unit = {
    attempted += 1
    outcome.failed.foreach(e => note(s"operation threw: $e"))
    if (!outcome.map(task.same(_, ref)).getOrElse(false)) failed += 1
  }

  /** Run `body` as one measured window: seconds, Spark counts and the RDD
    * blocks it cached, with the listener settled on both sides.
    */
  private def window[B](body: => B): (B, Double, Counts, Long, Int) = {
    collector.settle()
    collector.reset()
    val persistentBefore = collector.persistentRdds
    val t0 = System.nanoTime()
    val r = body
    val s = secondsSince(t0)
    collector.settle()
    (r, s, collector.total, collector.cachedBytes, collector.persistentRdds - persistentBefore)
  }

  /** The same small shuffle job, measured twice, must give identical counts. */
  private def listenerSelfTest(): Unit = {
    def job(): Counts = window {
      spark.range(0, 20000, 1, 4).selectExpr("id % 97 AS k").groupBy("k").count().collect()
    }._3
    val (a, b) = (job(), job())
    def key(c: Counts) = (c.jobs, c.stages, c.tasks, c.shuffleWriteBytes, c.shuffleReadBytes)
    check(s"listener self-test: counts repeat ${key(a)} == ${key(b)}", key(a) == key(b) && a.jobs > 0)
  }

  /** A perturbed answer must count as a failed operation. */
  private def perturbSelfTest(ref: A): Unit = {
    val (a0, f0) = (attempted, failed)
    record(Success(task.perturb(ref)), ref)
    record(Failure(new RuntimeException("deliberate failure of the perturbation self-test")), ref)
    val counted = failed - f0 == 2
    attempted = a0; failed = f0
    check("perturbed and throwing answers count as failures", counted)
  }

  /** Run the workload; `sparkStartS` is the time the session took to start. */
  def run(sparkStartS: Double): Unit = {
    listenerSelfTest()

    // Set-up: the session, data generation with base-relation caching
    // (repeated; the median counts), and the first model, which also pays
    // JIT and code-generation warm-up.
    var ds: repro.exp.Workloads.Dataset = null
    val dataS = (1 to DataReps).map { rep =>
      if (ds != null) ds.uncache()
      val t0 = System.nanoTime()
      ds = task.dataset(spark, opts.seed).cache()
      secondsSince(t0)
    }
    val t0 = System.nanoTime()
    val first = task.model(spark, ds, None)
    val firstS = secondsSince(t0)
    val setupS = sparkStartS + median(dataS) + firstS
    note(f"set-up: data ${dataS.map(s => f"$s%.3f").mkString(", ")} s, first model $firstS%.3f s")

    val ref = Try(task.reference(spark, ds, first)) match {
      case Success(r) => check("engine matches the reference path", true); r
      case Failure(e: Mismatch) => check(s"engine matches the reference path: ${e.getMessage}", false); first
      case Failure(e) => throw e
    }
    check("the first model equals the reference", task.same(first, ref))
    perturbSelfTest(ref)

    // Timed operations: the model, from submitting the task to the trained
    // model on the driver, for at least the requested seconds.
    val walls = mutable.ArrayBuffer.empty[Double]
    val cached = mutable.ArrayBuffer.empty[Double]
    val counts = mutable.ArrayBuffer.empty[Counts]
    val deadline = System.nanoTime() + (opts.seconds * 1e9).toLong
    while (walls.size < MinOps || System.nanoTime() < deadline) {
      val (outcome, s, c, bytes, leaked) = window(Try(task.model(spark, ds, None)))
      record(outcome, ref)
      walls += s; cached += bytes / MB; counts += c
      note(f"op ${walls.size}: $s%.3f s, ${c.jobs} jobs, ${c.tasks} tasks, " +
        f"${c.shuffleWriteBytes / MB}%.2f MB shuffle, ${bytes / MB}%.3f MB cached, $leaked leaked")
    }
    val modelS = median(walls.toSeq)
    val repeat = counts.map(c => (c.jobs, c.tasks, c.shuffleWriteBytes)).distinct.size == 1 && cached.distinct.size == 1
    note(s"Spark counts and cached bytes ${if (repeat) "repeat exactly" else "VARY"} across timed operations")

    val metrics: Seq[(String, Double, String)] =
      if (!opts.trace) Seq(
        ("model_s", modelS, "s"),
        ("setup_s", setupS, "s"),
        ("cached_mb", median(cached.toSeq), "MB"),
        ("success_rate", (attempted - failed).toDouble / attempted, "ratio"),
      )
      else traced(ds, ref, modelS)

    ds.uncache()
    val correct = checksHold && failed == 0
    metrics.foreach { case (n, v, u) => println(s"$n $v $u") }
    println(Json.result(correct, attempted, failed, metrics))
  }

  /** The per-layer run: one traced model, the first batch forced group by
    * group, and the shared-join baseline on the same batch.
    */
  private def traced(ds: repro.exp.Workloads.Dataset, ref: A, modelS: Double): Seq[(String, Double, String)] = {
    val tr = new Tracer(spark.sparkContext)

    // (a) The model, with a span around every call into a module.
    val (outcome, _, opCounts, _, leaked) = window(Try(tr.span("op")(task.model(spark, ds, Some(tr)))))
    val persisted = collector.cachedRdds
    record(outcome, ref)
    val op = tr.named("op").head
    val opSpans = tr.subtree(op)
    def countsOf(spans: Seq[Span]) = collector.counts(spans.map(_.id.toString))
    val mlSpans = opSpans.filter(_.layer == task.mlLayer)
    val mlTop = mlSpans.filter(s => !mlSpans.exists(_.id == s.parent))
    val mlBusy = countsOf(mlSpans).busySeconds
    val layerSelf = opSpans.filter(_ != op).map(tr.selfSeconds).sum
    val assembleJobs = countsOf(tr.named("linreg.assemble")).jobs
    val modelCounts = outcome.toOption.map(task.modelCounts).getOrElse(Map.empty)
    val opCountsBySpan = opSpans.map(s => s.id -> countsOf(Seq(s))).toMap

    // (b) The first batch on the batch-runtime path: plan, group, build, then
    // force each group in dependency order (count its views, collect its
    // outputs), then clean up.
    val ((groupRows, planStats), _, _, _, _) = window(tr.span("batch") {
      val plan = tr.span("viewgen.plan")(ViewGeneration.plan(ds.tree, task.firstBatch))
      val groups = tr.span("group.groups")(DependencyGraph.groups(plan))
      val res = tr.span("exec.build")(LmfaoExec.run(ds.tables, plan))
      val rows = res.groups.zipWithIndex.map { case (g, i) =>
        tr.span(s"exec.group.$i") {
          g.views.foreach(v => res.viewFrames(v.id).count())
          g.outputs.map(o => res.queryResults(o.query.name).collect().length.toLong).sum
        }
      }
      tr.span("exec.cleanup")(res.cleanup())
      (rows, (plan.stats(groups.size), groups))
    })
    val batchSpans = tr.subtree(tr.named("batch").head)
    val batchCountsBySpan = batchSpans.map(s => s.id -> countsOf(Seq(s))).toMap
    def inBatch(name: String) = batchSpans.find(_.name == name).get
    val (stats, groups) = planStats
    val groupSpans = groups.indices.map(i => inBatch(s"exec.group.$i"))
    val groupCounts = groupSpans.map(s => countsOf(Seq(s)))

    // (c) The shared-join baseline on the same batch (reference only).
    window(tr.span("baseline.sharedjoin") {
      val (joined, results) = Baselines.runSharedJoin(ds.tree, ds.tables, task.firstBatch)
      results.values.foreach(_.collect())
      joined.unpersist()
    })
    val base = tr.named("baseline.sharedjoin").head
    val baseCounts = collector.counts(Seq(base.id.toString))

    val spanCounts = opCountsBySpan ++ batchCountsBySpan + (base.id -> baseCounts)
    // Aggregate passes over a group's shared frame, as LmfaoExec.run makes
    // them: one per merged view, one per distinct output group-by list.
    def passes(g: ViewGroup) = g.views.size + g.outputs.map(_.query.groupBy).distinct.size
    writeTrace(tr, spanCounts, groups.map(g => g.label -> passes(g)))

    Seq(
      ("viewgen.plan_s", inBatch("viewgen.plan").seconds, "s"),
      ("viewgen.views_unmerged", stats.nUnmergedViews.toDouble, "count"),
      ("viewgen.views_merged", stats.nMergedViews.toDouble, "count"),
      ("viewgen.agg_columns", stats.nAggColumns.toDouble, "count"),
      ("group.groups_s", inBatch("group.groups").seconds, "s"),
      ("group.groups", groups.size.toDouble, "count"),
      ("group.passes", groups.map(passes).sum.toDouble, "count"),
      ("exec.build_s", inBatch("exec.build").seconds, "s"),
      ("exec.batch_s", inBatch("batch").seconds, "s"),
      ("exec.spark_busy_s", opCounts.busySeconds, "s"),
      ("exec.jobs", opCounts.jobs.toDouble, "count"),
      ("exec.stages", opCounts.stages.toDouble, "count"),
      ("exec.tasks", opCounts.tasks.toDouble, "count"),
      ("exec.shuffle_write_mb", opCounts.shuffleWriteBytes / MB, "MB"),
      ("exec.shuffle_read_mb", opCounts.shuffleReadBytes / MB, "MB"),
      ("exec.spill_mb", opCounts.spillBytes / MB, "MB"),
      ("exec.result_rows", groupRows.sum.toDouble, "count"),
      ("exec.persisted_frames", persisted.toDouble, "count"),
      ("exec.leaked_frames", leaked.toDouble, "count"),
      ("exec.group.max_s", groupSpans.map(_.seconds).max, "s"),
      ("exec.group.max_jobs", groupCounts.map(_.jobs).max.toDouble, "count"),
      ("exec.group.max_shuffle_mb", groupCounts.map(_.shuffleWriteBytes).max / MB, "MB"),
      ("ml.spark_busy_s", mlBusy, "s"),
      ("ml.driver_s", mlTop.map(_.seconds).sum - mlBusy, "s"),
      ("linreg.assemble_jobs", assembleJobs.toDouble, "count"),
      ("tree.node_batches", modelCounts.getOrElse("tree.node_batches", 0.0), "count"),
      ("rkmeans.coreset_size", modelCounts.getOrElse("rkmeans.coreset_size", 0.0), "count"),
      ("baseline.sharedjoin_s", base.seconds, "s"),
      ("baseline.sharedjoin_jobs", baseCounts.jobs.toDouble, "count"),
      ("baseline.sharedjoin_shuffle_mb", baseCounts.shuffleWriteBytes / MB, "MB"),
      ("trace.op_s", op.seconds, "s"),
      ("trace.overhead_s", op.seconds - modelS, "s"),
      ("trace.layer_share", layerSelf / op.seconds, "ratio"),
    )
  }

  private def writeTrace(tr: Tracer, counts: Map[Int, Counts], groups: Seq[(String, Int)]): Unit = {
    val spans = tr.spans.map { s =>
      val c = counts.getOrElse(s.id, Counts())
      Json.obj(Seq(
        "id" -> Json.num(s.id), "name" -> Json.str(s.name), "parent" -> Json.num(s.parent),
        "start_s" -> Json.num(s.startNs / 1e9), "end_s" -> Json.num(s.endNs / 1e9),
        "self_s" -> Json.num(tr.selfSeconds(s)), "spark_busy_s" -> Json.num(c.busySeconds),
        "jobs" -> Json.num(c.jobs), "stages" -> Json.num(c.stages), "tasks" -> Json.num(c.tasks),
        "shuffle_write_bytes" -> Json.num(c.shuffleWriteBytes),
        "shuffle_read_bytes" -> Json.num(c.shuffleReadBytes)))
    }
    val gs = groups.zipWithIndex.map { case ((label, passes), i) =>
      Json.obj(Seq("index" -> Json.num(i), "label" -> Json.str(label), "passes" -> Json.num(passes)))
    }
    val doc = Json.obj(Seq("workload" -> Json.str(task.name), "seed" -> Json.num(opts.seed),
      "spans" -> Json.arr(spans), "groups" -> Json.arr(gs)))
    Files.createDirectories(opts.out)
    val file = opts.out.resolve(s"trace-${task.name}-${opts.seed}.json")
    Files.write(file, doc.getBytes(StandardCharsets.UTF_8))
    note(s"spans written to $file")
  }
}

/** Minimal JSON rendering for the result line and the span file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
  def num(l: Long): String = l.toString
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a finite number: $d")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  }
  def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String =
    obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> obj(metrics.map { case (n, v, u) => n -> obj(Seq("value" -> num(v), "unit" -> str(u))) })))
}
