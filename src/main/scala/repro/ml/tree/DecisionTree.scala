package repro.ml.tree

import org.apache.spark.sql.DataFrame

import repro.core.exec.LmfaoExec
import repro.core.query.Predicate
import repro.core.schema.JoinTree
import repro.core.viewgen.ViewGeneration
import repro.ml.tree.SplitFinder.negate

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

/** CART over the non-materialised join D, grown level by level: all nodes
  * of one depth form one LMFAO batch (one grouped query per feature and node,
  * each under its node's path condition), and each node then picks its
  * variance-minimising split (paper §3). Nodes at the maximum depth are
  * leaves, so their batch holds only the first feature's query, whose sums
  * are the node's totals. A depth-d tree is d + 1 engine runs, and each run
  * computes its own views: no result outlives its level.
  */
object DecisionTree {

  final case class NodeTrace(pathConds: Seq[Predicate], count: Double, variance: Double,
                             chosen: Option[Split])

  final case class Trained(root: TreeNode, nodes: Seq[NodeTrace])

  def train(tree: JoinTree, tables: Map[String, DataFrame], features: Seq[TreeFeature],
            label: String, maxDepth: Int, minLeaf: Double = 1.0): Trained = {
    /** Grow the nodes of one level, each given by its path condition: run
      * the level's batch, decide every split, grow all children as the next
      * level, and return each node's subtree with its node traces in
      * pre-order.
      */
    def grow(level: Seq[Seq[Predicate]], depth: Int): Seq[(TreeNode, Seq[NodeTrace])] = {
      // A node at maxDepth is a leaf and reads only its totals, which the
      // first feature's statistics hold: that level runs this one query.
      val needed = if (depth >= maxDepth) features.take(1) else features
      val decided = level.zip(levelStats(tree, tables, needed, label, level)).map { case (pathConds, stats) =>
        val first = stats(features.head.attr)
        val n = first.map(_.count).sum
        val sy = first.map(_.sumY).sum
        val sy2 = first.map(_.sumY2).sum
        // An empty node has variance 0, so it never splits, and predicts 0.
        val nodeVar = SplitFinder.variance(n, sy, sy2)
        val split =
          if (depth >= maxDepth || n < 2 * minLeaf || nodeVar <= 0) None
          else SplitFinder.bestSplit(stats, features, minLeaf).filter(_.score < nodeVar)
        (NodeTrace(pathConds, n, nodeVar, split), if (n > 0) sy / n else 0.0)
      }
      val children = decided.flatMap { case (t, _) =>
        t.chosen.toSeq.flatMap(s => Seq(t.pathConds :+ s.predicate, t.pathConds :+ negate(s.predicate)))
      }
      val below = if (children.isEmpty) Iterator.empty else grow(children, depth + 1).iterator
      decided.map { case (trace, prediction) =>
        trace.chosen.fold[(TreeNode, Seq[NodeTrace])]((Leaf(prediction), Seq(trace))) { s =>
          val ((left, lt), (right, rt)) = (below.next(), below.next())
          (Inner(s, left, right), trace +: (lt ++ rt))
        }
      }
    }

    val Seq((node, traces)) = grow(Seq(Nil), 0)
    Trained(node, traces)
  }

  /** Run the node batch through the LMFAO engine and collect per-feature
    * value statistics.
    */
  def nodeStats(tree: JoinTree, tables: Map[String, DataFrame], features: Seq[TreeFeature],
                label: String, pathConds: Seq[Predicate]): Map[String, Seq[ValueStats]] =
    levelStats(tree, tables, features, label, Seq(pathConds)).head

  /** The node batches of several nodes as one LMFAO run: node i's queries are
    * renamed `n<i>_node_<attr>`, and its statistics come back at position i.
    */
  private def levelStats(tree: JoinTree, tables: Map[String, DataFrame], features: Seq[TreeFeature],
                         label: String, paths: Seq[Seq[Predicate]]): Seq[Map[String, Seq[ValueStats]]] = {
    val batches = paths.zipWithIndex.map { case (pathConds, i) =>
      NodeBatch.queries(features, label, pathConds).map(q => q.copy(name = s"n${i}_${q.name}"))
    }
    val result = LmfaoExec.run(tables, ViewGeneration.plan(tree, batches.flatten))
    try batches.map(NodeBatch.stats(_, result.queryResults)) finally result.cleanup()
  }
}
