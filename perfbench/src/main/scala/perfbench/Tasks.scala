package perfbench

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.core.baseline.Baselines
import repro.core.exec.LmfaoExec
import repro.core.query.{AggQuery, Predicate}
import repro.core.viewgen.ViewGeneration
import repro.data.{Favorita, Retailer}
import repro.exp.Workloads.Dataset
import repro.ml.linreg.{Features, LinearRegression, Sigma, SigmaBatch}
import repro.ml.rkmeans.RkMeans
import repro.ml.tree.{DecisionTree, Inner, Leaf, NodeBatch, SplitFinder, TreeFeature, TreeNode, ValueStats}
import repro.ml.tree.FeatureKind.Continuous

/** A reference path disagrees with the engine. */
final class Mismatch(msg: String) extends Exception(msg)

/** One benchmark workload: an ML task driven through the LMFAO engine.
  *
  * @tparam A the trained model, compared exactly against a reference
  */
abstract class Task[A] {
  def name: String
  /** The ML module that owns the task (`linreg`, `tree` or `rkmeans`). */
  def mlLayer: String
  /** Scale factor handed to the program's own Spark entry point. */
  def sf: Double
  def dataset(spark: SparkSession, seed: Long): Dataset
  /** The workload's first LMFAO batch (the only one for regression). */
  def firstBatch: Seq[AggQuery]
  /** Train the model. With a tracer, each call into a module is a span. */
  def model(spark: SparkSession, ds: Dataset, tr: Option[Tracer]): A
  /** The model computed along a path independent of the engine, given the
    * engine's first model; throws [[Mismatch]] when an intermediate result
    * disagrees with the engine.
    */
  def reference(spark: SparkSession, ds: Dataset, first: A): A
  def same(a: A, b: A): Boolean
  /** A copy of `a` with one number changed, for the checker's self-test. */
  def perturb(a: A): A
  /** Module-specific counts of a trained model, by metric name. */
  def modelCounts(a: A): Map[String, Double] = Map.empty

  protected def sp[B](tr: Option[Tracer], span: String)(body: => B): B =
    tr.fold(body)(_.span(span)(body))
}

object Tasks {
  private def retailer(spark: SparkSession, sf: Double, seed: Long) =
    Dataset("Retailer", Retailer.tree(sf), Retailer.tables(spark, sf, seed))
  private def favorita(spark: SparkSession, sf: Double, seed: Long) =
    Dataset("Favorita", Favorita.tree(sf), Favorita.tables(spark, sf, seed))

  val all: Seq[Task[_]] = Seq(
    new LinReg("retailer-lr", 0.01, retailer, Features(
      label = "inventoryunits",
      continuous = Seq("prize"),
      categorical = Seq("category"))),
    new LinReg("favorita-lr", 0.05, favorita, Features(
      label = "units",
      continuous = Seq("txns", "oilprize"),
      categorical = Seq("family", "promo"))),
    new Cart("retailer-cart", 0.01, retailer, Seq(TreeFeature("prize", Continuous)),
      label = "inventoryunits", maxDepth = 1, minLeaf = 10),
    new RkMeansTask("favorita-rkmeans", 0.01, favorita, Seq("txns"), k = 5, kPerDim = 5),
  )

  def byName(name: String): Option[Task[_]] = all.find(_.name == name)
}

/** Σ and θ of a ridge regression. */
final case class LrModel(sigma: Sigma, theta: Array[Double])

/** Ridge linear regression: the Σ batch through the engine, `Sigma.assemble`,
  * then batch gradient descent. Reference: the same batch on the shared-join
  * baseline.
  */
final class LinReg(val name: String, val sf: Double,
                   data: (SparkSession, Double, Long) => Dataset, f: Features) extends Task[LrModel] {
  private val lambda = 1e-3
  val mlLayer = "linreg"
  def dataset(spark: SparkSession, seed: Long): Dataset = data(spark, sf, seed)
  val firstBatch: Seq[AggQuery] = SigmaBatch.queries(f)

  def model(spark: SparkSession, ds: Dataset, tr: Option[Tracer]): LrModel = {
    val plan = sp(tr, "viewgen.plan")(ViewGeneration.plan(ds.tree, firstBatch))
    val res = sp(tr, "exec.build")(LmfaoExec.run(ds.tables, plan))
    val sigma =
      try sp(tr, "linreg.assemble")(Sigma.assemble(res.queryResults, f))
      finally sp(tr, "exec.cleanup")(res.cleanup())
    LrModel(sigma, sp(tr, "linreg.bgd")(LinearRegression.trainBgd(sigma, lambda)).theta)
  }

  def reference(spark: SparkSession, ds: Dataset, first: LrModel): LrModel = {
    val (joined, results) = Baselines.runSharedJoin(ds.tree, ds.tables, firstBatch)
    val sigma = try Sigma.assemble(results, f) finally joined.unpersist()
    LrModel(sigma, LinearRegression.trainBgd(sigma, lambda).theta)
  }

  def same(a: LrModel, b: LrModel): Boolean =
    a.sigma.count == b.sigma.count && a.sigma.catValueIndex == b.sigma.catValueIndex &&
      a.sigma.matrix.data.sameElements(b.sigma.matrix.data) && a.theta.sameElements(b.theta)

  def perturb(a: LrModel): LrModel = {
    val m = a.sigma.matrix.copy
    m(0, 0) = m(0, 0) + 1
    a.copy(sigma = a.sigma.copy(matrix = m))
  }
}

/** A CART regression tree (`DecisionTree.train`). Reference: the same tree
  * grown from per-query baseline statistics, after checking at every node
  * that the engine's per-feature statistics equal the baseline's.
  */
final class Cart(val name: String, val sf: Double, data: (SparkSession, Double, Long) => Dataset,
                 features: Seq[TreeFeature], label: String, maxDepth: Int, minLeaf: Double)
    extends Task[DecisionTree.Trained] {
  val mlLayer = "tree"
  def dataset(spark: SparkSession, seed: Long): Dataset = data(spark, sf, seed)
  val firstBatch: Seq[AggQuery] = NodeBatch.queries(features, label, Nil)

  def model(spark: SparkSession, ds: Dataset, tr: Option[Tracer]): DecisionTree.Trained =
    sp(tr, "tree.train")(DecisionTree.train(ds.tree, ds.tables, features, label, maxDepth, minLeaf))

  private def sorted(stats: Map[String, Seq[ValueStats]]) = stats.map { case (a, vs) => a -> vs.sortBy(_.value) }

  private def baselineStats(ds: Dataset, conds: Seq[Predicate]): Map[String, Seq[ValueStats]] = {
    val results = Baselines.runPerQuery(ds.tree, ds.tables, NodeBatch.queries(features, label, conds))
    features.map { f =>
      f.attr -> results(s"node_${f.attr}").collect().toSeq.map { r =>
        ValueStats(r.getAs[Any](f.attr).toString.toLong, r.getAs[Double](s"cnt_${f.attr}"),
          r.getAs[Double](s"sy_${f.attr}"), r.getAs[Double](s"sy2_${f.attr}"))
      }
    }.toMap
  }

  /** CART growth as `DecisionTree.train` specifies it, fed by baseline stats. */
  def reference(spark: SparkSession, ds: Dataset, first: DecisionTree.Trained): DecisionTree.Trained = {
    val traces = mutable.ArrayBuffer.empty[DecisionTree.NodeTrace]
    def grow(conds: Seq[Predicate], depth: Int): TreeNode = {
      val stats = sorted(baselineStats(ds, conds))
      val engine = sorted(DecisionTree.nodeStats(ds.tree, ds.tables, features, label, conds))
      if (engine != stats)
        throw new Mismatch(s"node [${conds.map(_.sql).mkString(" AND ")}]: engine stats differ from PerQuery")
      val byValue = stats(features.head.attr)
      val n = byValue.map(_.count).sum
      if (n <= 0) { traces += DecisionTree.NodeTrace(conds, 0, 0, None); return Leaf(0.0) }
      val nodeVar = SplitFinder.variance(n, byValue.map(_.sumY).sum, byValue.map(_.sumY2).sum)
      val split =
        if (depth >= maxDepth || n < 2 * minLeaf || nodeVar <= 0) None
        else SplitFinder.bestSplit(stats, features, minLeaf).filter(_.score < nodeVar)
      traces += DecisionTree.NodeTrace(conds, n, nodeVar, split)
      split.fold[TreeNode](Leaf(byValue.map(_.sumY).sum / n)) { s =>
        val left = grow(conds :+ s.predicate, depth + 1)
        Inner(s, left, grow(conds :+ SplitFinder.negate(s.predicate), depth + 1))
      }
    }
    DecisionTree.Trained(grow(Nil, 0), traces.toSeq)
  }

  def same(a: DecisionTree.Trained, b: DecisionTree.Trained): Boolean = a == b

  def perturb(a: DecisionTree.Trained): DecisionTree.Trained =
    a.copy(nodes = a.nodes.updated(0, a.nodes.head.copy(count = a.nodes.head.count + 1)))

  override def modelCounts(a: DecisionTree.Trained): Map[String, Double] =
    Map("tree.node_batches" -> a.nodes.size.toDouble)
}

/** Rk-means (`RkMeans.run`). Reference: the engine's first model, once its
  * coreset weights are shown to sum to the size of the materialised join;
  * every later model must repeat it exactly.
  */
final class RkMeansTask(val name: String, val sf: Double, data: (SparkSession, Double, Long) => Dataset,
                        dims: Seq[String], k: Int, kPerDim: Int) extends Task[RkMeans.Result] {
  val mlLayer = "rkmeans"
  def dataset(spark: SparkSession, seed: Long): Dataset = data(spark, sf, seed)
  val firstBatch: Seq[AggQuery] = RkMeans.projectionQueries(dims)

  def model(spark: SparkSession, ds: Dataset, tr: Option[Tracer]): RkMeans.Result =
    sp(tr, "rkmeans.run")(RkMeans.run(spark, ds.tree, ds.tables, dims, k, kPerDim))

  def reference(spark: SparkSession, ds: Dataset, first: RkMeans.Result): RkMeans.Result = {
    val joined = Baselines.joinAll(ds.tree, ds.tables).count()
    if (first.datasetSize != joined.toDouble)
      throw new Mismatch(s"coreset weights sum to ${first.datasetSize}, the join has $joined rows")
    first
  }

  private def deep(a: Array[Array[Double]], b: Array[Array[Double]]) =
    a.length == b.length && a.indices.forall(i => a(i).sameElements(b(i)))

  def same(a: RkMeans.Result, b: RkMeans.Result): Boolean =
    deep(a.centroids, b.centroids) && a.dims == b.dims && a.coresetSize == b.coresetSize &&
      a.datasetSize == b.datasetSize && a.coresetCost == b.coresetCost &&
      a.perDimCentroids.keySet == b.perDimCentroids.keySet &&
      a.perDimCentroids.forall { case (d, c) => c.sameElements(b.perDimCentroids(d)) }

  def perturb(a: RkMeans.Result): RkMeans.Result = {
    val c = a.centroids.map(_.clone())
    c(0)(0) += 1
    a.copy(centroids = c)
  }

  override def modelCounts(a: RkMeans.Result): Map[String, Double] =
    Map("rkmeans.coreset_size" -> a.coresetSize.toDouble)
}
