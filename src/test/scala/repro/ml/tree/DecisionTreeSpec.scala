package repro.ml.tree

import repro.{Check, SparkSpec, TestData}
import repro.core.baseline.Baselines
import repro.core.query.{CmpOp, Measure, Predicate}
import repro.core.schema.{JoinTree, Relation}

class DecisionTreeSpec extends SparkSpec {

  /** Single-relation data with a planted step: y = 10 for x <= 5, else 20,
    * plus a categorical distractor g that is pure noise.
    */
  private lazy val planted: (JoinTree, Map[String, org.apache.spark.sql.DataFrame]) = {
    import spark.implicits._
    val rng = new scala.util.Random(17)
    val rows = Seq.fill(300) {
      val x = rng.nextInt(10) + 1L
      val g = rng.nextInt(3) + 1L
      val y = if (x <= 5) 10L else 20L
      (x, g, y)
    }
    (JoinTree(Seq(Relation("R", Seq("x", "g", "y"))), Nil), Map("R" -> rows.toDF("x", "g", "y")))
  }

  private val plantedFeatures = Seq(
    TreeFeature("x", FeatureKind.Continuous),
    TreeFeature("g", FeatureKind.Categorical))

  test("the root split finds the planted threshold") {
    val (tree, tables) = planted
    val trained = DecisionTree.train(tree, tables, plantedFeatures, "y", maxDepth = 1)
    trained.root match {
      case Inner(s, _, _) => assert(s.predicate == Predicate("x", CmpOp.Le, 5))
      case Leaf(_) => fail("expected a split at the root")
    }
  }

  test("leaf predictions are the group means of the planted step") {
    val (tree, tables) = planted
    val trained = DecisionTree.train(tree, tables, plantedFeatures, "y", maxDepth = 1)
    assert(trained.root.predict(Map("x" -> 3L, "g" -> 1L)) == 10.0)
    assert(trained.root.predict(Map("x" -> 8L, "g" -> 1L)) == 20.0)
  }

  test("pure nodes stop splitting before the depth limit") {
    val (tree, tables) = planted
    val trained = DecisionTree.train(tree, tables, plantedFeatures, "y", maxDepth = 4)
    // After the perfect split both children are pure: depth stays 1.
    assert(trained.root.depth == 1)
    assert(trained.root.leaves == 2)
  }

  test("maxDepth = 0 yields a single leaf with the global mean") {
    val (tree, tables) = planted
    val trained = DecisionTree.train(tree, tables, plantedFeatures, "y", maxDepth = 0)
    trained.root match {
      case Leaf(v) =>
        val d = tables("R").collect()
        val mean = d.map(_.getAs[Long]("y")).sum.toDouble / d.length
        assert(math.abs(v - mean) < 1e-9)
      case _ => fail("expected a leaf")
    }
  }

  test("node batch statistics under a path condition match DuckDB") {
    val (tree, tables) = TestData.chain(spark)
    val conds = Seq(Predicate("a", CmpOp.Le, 6))
    val batch = NodeBatch.queries(Seq(TreeFeature("b", FeatureKind.Continuous)), "d", conds)
    Check.lmfaoVsDuck(tree, tables, batch)
  }

  test("nodeStats over a join equals stats over the materialised join") {
    val (tree, tables) = TestData.chain(spark)
    val features = Seq(TreeFeature("b", FeatureKind.Continuous), TreeFeature("c", FeatureKind.Categorical))
    val d = repro.core.baseline.Baselines.joinAll(tree, tables).collect()
    for (conds <- Seq(Nil, Seq(Predicate("a", CmpOp.Le, 4), Predicate("c", CmpOp.Ne, 2)))) withClue(conds) {
      val stats = DecisionTree.nodeStats(tree, tables, features, "d", conds)
      val kept = d.filter(r => conds.forall(p => p.holds(r.getAs[Long](p.attr))))
      features.foreach { f =>
        val expected = kept.groupBy(_.getAs[Long](f.attr)).map { case (v, rows) =>
          val ys = rows.map(_.getAs[Long]("d").toDouble)
          ValueStats(v, rows.length, ys.sum, ys.map(y => y * y).sum)
        }.toSeq.sortBy(_.value)
        // A value the condition excludes keeps a row with count and sums 0.
        val (present, excluded) = stats(f.attr).sortBy(_.value).partition(_.count > 0)
        assert(present == expected, s"stats mismatch for ${f.attr}")
        assert(excluded.forall(s => s.sumY == 0 && s.sumY2 == 0), s"nonzero sums in ${f.attr}: $excluded")
      }
      assert(stats.values.flatten.exists(_.count == 0) == conds.nonEmpty)
    }
  }

  test("a depth-2 tree over the chain join reduces training variance") {
    val (tree, tables) = TestData.chain(spark)
    val features = Seq(TreeFeature("a", FeatureKind.Continuous), TreeFeature("c", FeatureKind.Categorical))
    val trained = DecisionTree.train(tree, tables, features, "d", maxDepth = 2, minLeaf = 3)
    val d = repro.core.baseline.Baselines.joinAll(tree, tables).collect()
    val ys = d.map(_.getAs[Long]("d").toDouble)
    val mean = ys.sum / ys.length
    val sseRoot = ys.map(y => (y - mean) * (y - mean)).sum
    val sseTree = d.map { row =>
      val pred = trained.root.predict(Map(
        "a" -> row.getAs[Long]("a"), "c" -> row.getAs[Long]("c")))
      val y = row.getAs[Long]("d").toDouble
      (y - pred) * (y - pred)
    }.sum
    assert(sseTree <= sseRoot + 1e-9)
  }

  test("the chosen split beats every alternative (brute force over D)") {
    val (tree, tables) = planted
    val trained = DecisionTree.train(tree, tables, plantedFeatures, "y", maxDepth = 1)
    val s = trained.root.asInstanceOf[Inner].split
    val d = tables("R").collect()
    def sse(rows: Seq[Double]): Double =
      if (rows.isEmpty) 0.0
      else { val m = rows.sum / rows.size; rows.map(y => (y - m) * (y - m)).sum }
    val bruteBest = (1L to 9L).map { t =>
      val (l, r) = d.partition(_.getAs[Long]("x") <= t)
      sse(l.map(_.getAs[Long]("y").toDouble).toSeq) + sse(r.map(_.getAs[Long]("y").toDouble).toSeq)
    }.min
    assert(math.abs(s.score - bruteBest) < 1e-6)
  }

  test("node traces record the path conditions") {
    val (tree, tables) = planted
    val trained = DecisionTree.train(tree, tables, plantedFeatures, "y", maxDepth = 1)
    assert(trained.nodes.exists(_.pathConds.isEmpty))
    assert(trained.nodes.exists(_.pathConds == Seq(Predicate("x", CmpOp.Le, 5))))
    assert(trained.nodes.exists(_.pathConds == Seq(Predicate("x", CmpOp.Gt, 5))))
  }

  test("minLeaf suppresses splits that isolate tiny groups") {
    val (tree, tables) = planted
    val trained = DecisionTree.train(tree, tables, plantedFeatures, "y",
      maxDepth = 1, minLeaf = 1e9)
    assert(trained.root.isInstanceOf[Leaf])
  }

  test("Predicate.holds agrees with Predicate.column evaluated by Spark") {
    import spark.implicits._
    // Favorita's `date` is an SQL keyword; the column parses it as an attribute.
    for (attr <- Seq("x", "date")) {
      val preds = Seq(CmpOp.Le, CmpOp.Ge, CmpOp.Eq, CmpOp.Ne, CmpOp.Lt, CmpOp.Gt).map(Predicate(attr, _, 5))
      // Values below, equal to and above the constant.
      val rows = Seq(4L, 5L, 6L).toDF(attr)
        .select(org.apache.spark.sql.functions.col(attr) +: preds.map(_.column): _*).collect()
      assert(rows.map(_.getLong(0)).sorted.toSeq == Seq(4L, 5L, 6L))
      for (r <- rows; (p, i) <- preds.zipWithIndex)
        assert(r.getBoolean(i + 1) == p.holds(r.getLong(0)), s"${p.sql} at $attr = ${r.getLong(0)}")
    }
  }

  test("level batches grow the tree that per-node statistics give and leave nothing cached") {
    val (tree, tables) = TestData.chain(spark)
    val features = Seq(TreeFeature("a", FeatureKind.Continuous), TreeFeature("c", FeatureKind.Categorical))
    val before = spark.sparkContext.getPersistentRDDs.size
    val trained = DecisionTree.train(tree, tables, features, "d", maxDepth = 2, minLeaf = 3)
    assert(spark.sparkContext.getPersistentRDDs.size == before)
    assert(trained.nodes.size > 1)
    trained.nodes.foreach { node =>
      val fresh = DecisionTree.nodeStats(tree, tables, features, "d", node.pathConds)
      val byValue = fresh(features.head.attr)
      assert(byValue.map(_.count).sum == node.count)
      assert(SplitFinder.variance(node.count, byValue.map(_.sumY).sum, byValue.map(_.sumY2).sum) == node.variance)
      node.chosen.foreach(s => assert(SplitFinder.bestSplit(fresh, features, 3).contains(s)))
    }
  }

  test("a depth-2 tree equals, with its node traces in pre-order, the tree grown from PerQuery statistics") {
    val (tree, tables) = TestData.chain(spark)
    val features = Seq(TreeFeature("a", FeatureKind.Continuous), TreeFeature("c", FeatureKind.Categorical))
    val (maxDepth, minLeaf) = (2, 3.0)
    // Reference: the same CART recursion, one node after the other, over
    // statistics from the per-query baseline.
    def grow(conds: Seq[Predicate], depth: Int): (TreeNode, Seq[DecisionTree.NodeTrace]) = {
      val batch = NodeBatch.queries(features, "d", conds)
      val stats = NodeBatch.stats(batch, Baselines.runPerQuery(tree, tables, batch))
      val first = stats(features.head.attr)
      val (n, sy, sy2) = (first.map(_.count).sum, first.map(_.sumY).sum, first.map(_.sumY2).sum)
      if (n <= 0) (Leaf(0.0), Seq(DecisionTree.NodeTrace(conds, 0, 0, None)))
      else {
        val nodeVar = SplitFinder.variance(n, sy, sy2)
        val split =
          if (depth >= maxDepth || n < 2 * minLeaf || nodeVar <= 0) None
          else SplitFinder.bestSplit(stats, features, minLeaf).filter(_.score < nodeVar)
        val trace = DecisionTree.NodeTrace(conds, n, nodeVar, split)
        split.fold[(TreeNode, Seq[DecisionTree.NodeTrace])]((Leaf(sy / n), Seq(trace))) { s =>
          val (l, lt) = grow(conds :+ s.predicate, depth + 1)
          val (r, rt) = grow(conds :+ SplitFinder.negate(s.predicate), depth + 1)
          (Inner(s, l, r), trace +: (lt ++ rt))
        }
      }
    }
    val (root, traces) = grow(Nil, 0)
    // The root and one of its children split: three level plans grew the tree.
    assert(root.depth == 2 && traces.size == 5)
    assert(DecisionTree.train(tree, tables, features, "d", maxDepth, minLeaf) == DecisionTree.Trained(root, traces))
  }
}
