package repro.core.viewgen

import org.scalatest.funsuite.AnyFunSuite

import repro.core.query.{AggQuery, Measure}
import repro.data.Favorita

class RootAssignmentSpec extends AnyFunSuite {

  private val tree = Favorita.tree(0.01)

  test("queries without group-by go to the largest relation") {
    val q = AggQuery("q", Nil, Seq(Measure.count("c")))
    assert(RootAssignment.choose(tree, q) == "Sales")
  }

  test("group-by on a private attribute picks its relation") {
    val q = AggQuery("q", Seq("iclass"), Seq(Measure.count("c")))
    assert(RootAssignment.choose(tree, q) == "Items")
  }

  test("group-by on a shared attribute breaks ties by cardinality") {
    // store is in Sales, Transactions and Stores; Sales is largest.
    val q = AggQuery("q", Seq("store"), Seq(Measure.count("c")))
    assert(RootAssignment.choose(tree, q) == "Sales")
  }

  test("multi-attribute group-by prefers the relation covering more attributes") {
    // family and iclass both live in Items only.
    val q = AggQuery("q", Seq("family", "iclass"), Seq(Measure.count("c")))
    assert(RootAssignment.choose(tree, q) == "Items")
  }

  test("group-by spanning relations picks the best cover") {
    // city (Stores) + cluster (Stores) vs txns (Transactions): Stores covers 2.
    val q = AggQuery("q", Seq("city", "cluster", "txns"), Seq(Measure.count("c")))
    assert(RootAssignment.choose(tree, q) == "Stores")
  }

  test("assign honours explicit overrides") {
    val q = AggQuery("q", Nil, Seq(Measure.count("c")))
    val roots = RootAssignment.assign(tree, Seq(q), Map("q" -> "Oil"))
    assert(roots("q") == "Oil")
  }

  test("assign rejects overrides to unknown relations") {
    val q = AggQuery("q", Nil, Seq(Measure.count("c")))
    assertThrows[IllegalArgumentException](
      RootAssignment.assign(tree, Seq(q), Map("q" -> "Nope")))
  }

  test("assign rejects overrides that name no query of the batch") {
    val q = AggQuery("q", Nil, Seq(Measure.count("c")))
    val e = intercept[IllegalArgumentException](
      RootAssignment.assign(tree, Seq(q), Map("q" -> "Oil", "typo" -> "Sales")))
    assert(e.getMessage.contains("typo"))
  }

  test("the demo batch gets the paper's root assignment") {
    val roots = RootAssignment.assign(tree, Favorita.demoQueries)
    assert(roots("Q1") == "Sales")
    assert(roots("Q2") == "Sales")
    assert(roots("Q3") == "Items")
  }
}
