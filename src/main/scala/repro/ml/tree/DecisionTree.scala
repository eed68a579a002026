package repro.ml.tree

import org.apache.spark.sql.DataFrame

import repro.core.exec.LmfaoExec
import repro.core.query.Predicate
import repro.core.schema.JoinTree
import repro.core.viewgen.ViewGeneration
import repro.ml.tree.SplitFinder.negate
import repro.util.Concurrently

/** A learned regression tree node: either a leaf prediction or a split with
  * the left child satisfying `split.predicate`.
  */
sealed trait TreeNode {
  def predict(row: Map[String, Long]): Double = this match {
    case Leaf(v) => v
    case Inner(split, left, right) =>
      if (split.predicate.holds(row(split.predicate.attr))) left.predict(row) else right.predict(row)
  }

  def depth: Int = this match {
    case Leaf(_) => 0
    case Inner(_, l, r) => 1 + math.max(l.depth, r.depth)
  }

  def leaves: Int = this match {
    case Leaf(_) => 1
    case Inner(_, l, r) => l.leaves + r.leaves
  }
}
final case class Leaf(prediction: Double) extends TreeNode
final case class Inner(split: Split, left: TreeNode, right: TreeNode) extends TreeNode

/** CART over the non-materialised join D: every tree node runs one LMFAO
  * batch (one grouped query per feature under the node's path condition) and
  * picks the variance-minimising split (paper §3). The two children of a
  * split are grown at the same time; the result does not depend on it.
  */
object DecisionTree {

  final case class NodeTrace(pathConds: Seq[Predicate], count: Double, variance: Double,
                             chosen: Option[Split])

  final case class Trained(root: TreeNode, nodes: Seq[NodeTrace])

  def train(tree: JoinTree, tables: Map[String, DataFrame], features: Seq[TreeFeature],
            label: String, maxDepth: Int, minLeaf: Double = 1.0): Trained = {
    // The root batch's views stay cached for the whole tree: every node batch
    // below reads those whose subtree holds no split attribute.
    val rootBatch = NodeBatch.queries(features, label, Nil)
    val root = LmfaoExec.run(tables, ViewGeneration.plan(tree, rootBatch))
    val parallelism = tables.values.head.sparkSession.sparkContext.defaultParallelism

    /** The subtree under `pathConds` and its node traces in pre-order. */
    def grow(pathConds: Seq[Predicate], depth: Int): (TreeNode, Seq[NodeTrace]) = {
      val stats =
        if (pathConds.isEmpty) NodeBatch.stats(rootBatch, root.queryResults)
        else nodeStats(tree, tables, features, label, pathConds, reuse = Some(root))
      val first = stats(features.head.attr)
      val n = first.map(_.count).sum
      val sy = first.map(_.sumY).sum
      val sy2 = first.map(_.sumY2).sum
      if (n <= 0) return (Leaf(0.0), Seq(NodeTrace(pathConds, 0, 0, None)))
      val mean = sy / n
      val nodeVar = SplitFinder.variance(n, sy, sy2)
      val split =
        if (depth >= maxDepth || n < 2 * minLeaf || nodeVar <= 0) None
        else SplitFinder.bestSplit(stats, features, minLeaf).filter(_.score < nodeVar)
      val trace = NodeTrace(pathConds, n, nodeVar, split)
      split match {
        case None => (Leaf(mean), Seq(trace))
        case Some(s) =>
          // The two children are independent node batches: grow them at the same time.
          val Seq((left, lt), (right, rt)) = Concurrently.all(parallelism)(Seq(
            () => grow(pathConds :+ s.predicate, depth + 1),
            () => grow(pathConds :+ negate(s.predicate), depth + 1)))
          (Inner(s, left, right), trace +: (lt ++ rt))
      }
    }

    try {
      val (node, traces) = grow(Nil, 0)
      Trained(node, traces)
    } finally root.cleanup()
  }

  /** Run the node batch through the LMFAO engine and collect per-feature
    * value statistics; `reuse` lends the views of an earlier node batch
    * (see `LmfaoExec.run`).
    */
  def nodeStats(tree: JoinTree, tables: Map[String, DataFrame], features: Seq[TreeFeature],
                label: String, pathConds: Seq[Predicate],
                reuse: Option[LmfaoExec.Result] = None): Map[String, Seq[ValueStats]] = {
    val batch = NodeBatch.queries(features, label, pathConds)
    val result = LmfaoExec.run(tables, ViewGeneration.plan(tree, batch), reuse = reuse)
    try NodeBatch.stats(batch, result.queryResults) finally result.cleanup()
  }
}
