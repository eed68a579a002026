package repro.core.viewgen

import org.scalatest.funsuite.AnyFunSuite

import repro.core.query.{AggQuery, Measure}
import repro.core.schema.{JoinTree, Relation}
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
    val roots = Favorita.demoQueries.map(q => q.name -> RootAssignment.choose(tree, q)).toMap
    assert(roots("Q1") == "Sales")
    assert(roots("Q2") == "Sales")
    assert(roots("Q3") == "Items")
    assert(roots == Favorita.demoRoots)
  }

  test("assign roots Q3 at Sales, where the Items key fixes iclass") {
    assert(RootAssignment.assign(tree, Favorita.demoQueries) == Map("Q1" -> "Sales", "Q2" -> "Sales", "Q3" -> "Sales"))
    assert(RootAssignment.assign(tree, Favorita.demoQueries, Favorita.demoRoots) == Favorita.demoRoots)
  }

  test("assign moves a query to the largest relation whenever keys fix its group-by there") {
    // choose roots each query at its own dimension, and no query of the
    // batch at Sales; the Items and Stores keys fix iclass and city.
    val byClass = AggQuery("byClass", Seq("iclass"), Seq(Measure.count("c")))
    val byCity = AggQuery("byCity", Seq("city"), Seq(Measure.count("c")))
    assert(Seq(byClass, byCity).map(RootAssignment.choose(tree, _)) == Seq("Items", "Stores"))
    assert(RootAssignment.assign(tree, Seq(byClass, byCity)) == Map("byClass" -> "Sales", "byCity" -> "Sales"))
    assert(RootAssignment.assign(tree, Seq(byClass)) == Map("byClass" -> "Sales"))
  }

  test("assign keeps a query whose group-by no key of the largest relation's edges fixes") {
    // D2 declares no key, so v stays at D2; D1's key k1 fixes u.
    val star = JoinTree(
      Seq(
        Relation("S", Seq("k1", "k2", "x")),
        Relation("D1", Seq("k1", "u"), key = Seq("k1")),
        Relation("D2", Seq("k2", "v")),
      ),
      Seq(("S", "D1"), ("S", "D2")),
      sizes = Map("S" -> 100L, "D1" -> 10L, "D2" -> 10L))
    val batch = Seq(
      AggQuery("total", Nil, Seq(Measure.count("c"))),
      AggQuery("byU", Seq("u"), Seq(Measure.count("c"))),
      AggQuery("byV", Seq("v"), Seq(Measure.count("c"))))
    assert(RootAssignment.assign(star, batch) == Map("total" -> "S", "byU" -> "S", "byV" -> "D2"))
  }
}
