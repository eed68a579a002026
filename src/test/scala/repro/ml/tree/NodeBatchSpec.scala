package repro.ml.tree

import org.scalatest.funsuite.AnyFunSuite

import repro.core.query.{CmpOp, Predicate, ScalarFn}

class NodeBatchSpec extends AnyFunSuite {

  private val features = Seq(
    TreeFeature("x", FeatureKind.Continuous),
    TreeFeature("g", FeatureKind.Categorical))

  test("one grouped query per feature") {
    val qs = NodeBatch.queries(features, "y", Nil)
    assert(qs.map(_.name) == Seq("node_x", "node_g"))
    assert(qs.map(_.groupBy) == Seq(Seq("x"), Seq("g")))
  }

  test("each query carries SUM(1), SUM(Y), SUM(Y^2)") {
    val q = NodeBatch.queries(features, "y", Nil).head
    assert(q.measures.map(_.name) == Seq("cnt_x", "sy_x", "sy2_x"))
    assert(q.measures(0).factors.isEmpty)
    assert(q.measures(1).factors.map(_.attr) == Seq("y"))
    assert(q.measures(2).factors.head.fn == ScalarFn.Square)
  }

  test("path conditions are attached to every query of the batch") {
    val conds = Seq(Predicate("x", CmpOp.Le, 3), Predicate("g", CmpOp.Ne, 2))
    val qs = NodeBatch.queries(features, "y", conds)
    assert(qs.forall(_.measures.forall(_.factors.takeRight(2) == conds.map(_.indicator))))
  }

  test("conceptual aggregates: continuous d values -> 3(d-1)") {
    val f = Seq(TreeFeature("x", FeatureKind.Continuous))
    assert(NodeBatch.conceptualAggregates(Map("x" -> 5), f) == 12)
    assert(NodeBatch.conceptualAggregates(Map("x" -> 1), f) == 0)
    assert(NodeBatch.conceptualAggregates(Map("x" -> 0), f) == 0)
  }

  test("conceptual aggregates: categorical d values -> 3d") {
    val f = Seq(TreeFeature("g", FeatureKind.Categorical))
    assert(NodeBatch.conceptualAggregates(Map("g" -> 5), f) == 15)
  }

  test("conceptual aggregates sum over features and ignore missing stats") {
    assert(NodeBatch.conceptualAggregates(Map("x" -> 4, "g" -> 2), features) == 9 + 6)
    assert(NodeBatch.conceptualAggregates(Map("x" -> 4), features) == 9)
  }
}
