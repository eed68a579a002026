package repro.core.viewgen

import org.scalatest.funsuite.AnyFunSuite

import repro.Check
import repro.core.query.{AggQuery, Factor, Measure, ScalarFn}
import repro.core.schema.{JoinTree, Relation}
import repro.data.Favorita

class ViewGenerationSpec extends AnyFunSuite {

  private val fav = Favorita.tree(0.01)
  private val demo = Favorita.demoQueries

  private val chain = JoinTree(
    Seq(Relation("A", Seq("a", "b")), Relation("B", Seq("b", "c")), Relation("C", Seq("c", "d"))),
    Seq(("A", "B"), ("B", "C")),
    sizes = Map("A" -> 100L, "B" -> 10L, "C" -> 5L),
  )

  test("a single count query produces one view per edge") {
    val q = AggQuery("q", Nil, Seq(Measure.count("c")))
    val plan = ViewGeneration.plan(chain, Seq(q), Map("q" -> "A"))
    assert(plan.views.map(_.id).toSet ==
      Set(ViewId("C", "B", Seq("c")), ViewId("B", "A", Seq("b"))))
  }

  test("view keys are the edge join keys plus carried group-by attributes") {
    val q = AggQuery("q", Seq("d"), Seq(Measure.count("c")))
    val plan = ViewGeneration.plan(chain, Seq(q), Map("q" -> "A"))
    assert(plan.views.map(_.id).toSet ==
      Set(ViewId("C", "B", Seq("c", "d")), ViewId("B", "A", Seq("b", "d"))))
  }

  test("group-by attributes at the root are not carried") {
    val q = AggQuery("q", Seq("a"), Seq(Measure.count("c")))
    val plan = ViewGeneration.plan(chain, Seq(q), Map("q" -> "A"))
    assert(plan.views.map(_.id).toSet ==
      Set(ViewId("C", "B", Seq("c")), ViewId("B", "A", Seq("b"))))
  }

  test("two count queries share all views") {
    val q1 = AggQuery("q1", Nil, Seq(Measure.count("c1")))
    val q2 = AggQuery("q2", Seq("a"), Seq(Measure.count("c2")))
    val plan = ViewGeneration.plan(chain, Seq(q1, q2), Map("q1" -> "A", "q2" -> "A"))
    assert(plan.views.size == 2)
    // The shared views carry a single merged aggregate column each.
    assert(plan.views.forall(_.aggs.size == 1))
  }

  test("different measures on the same edge become distinct aggregate columns") {
    val q1 = AggQuery("q1", Nil, Seq(Measure.count("c1")))
    val q2 = AggQuery("q2", Nil, Seq(Measure.sum("s2", "d")))
    val plan = ViewGeneration.plan(chain, Seq(q1, q2), Map("q1" -> "A", "q2" -> "A"))
    val vCB = plan.views.find(_.id == ViewId("C", "B", Seq("c"))).get
    assert(vCB.aggs.size == 2)
    val vBA = plan.views.find(_.id == ViewId("B", "A", Seq("b"))).get
    assert(vBA.aggs.size == 2)
  }

  test("factors are evaluated exactly once, at their owner node") {
    val q = AggQuery("q", Nil, Seq(Measure("m", Seq(Factor("a"), Factor("d")))))
    val plan = ViewGeneration.plan(chain, Seq(q), Map("q" -> "A"))
    val vCB = plan.views.find(_.id.from == "C").get
    assert(vCB.aggs.head.localFactors.map(_.attr) == Seq("d"))
    val vBA = plan.views.find(_.id.from == "B").get
    assert(vBA.aggs.head.localFactors.isEmpty)
    assert(plan.outputs.head.terms.head.localFactors.map(_.attr) == Seq("a"))
  }

  test("a shared join attribute is owned by the first relation in schema order") {
    // b is in both A and B; owner is A, so a factor over b must sit at A.
    val q = AggQuery("q", Nil, Seq(Measure.sum("s", "b")))
    val plan = ViewGeneration.plan(chain, Seq(q), Map("q" -> "A"))
    assert(plan.views.forall(_.aggs.forall(_.localFactors.isEmpty)))
    assert(plan.outputs.head.terms.head.localFactors.map(_.attr) == Seq("b"))
  }

  test("views are topologically ordered") {
    // Roots A, A, C and B: views travel the chain in both directions.
    val mixed = Seq(
      AggQuery("b1", Nil, Seq(Measure.count("c1"))),
      AggQuery("b2", Seq("a"), Seq(Measure.sum("s2", "d"))),
      AggQuery("b3", Seq("d"), Seq(Measure.sum("s3", "a"), Measure.count("c3"))),
      AggQuery("b4", Seq("b", "c"), Seq(Measure.sumProduct("p4", "a", "d"))))
    val mixedPlan = ViewGeneration.plan(chain, mixed, Map("b1" -> "A", "b2" -> "A", "b3" -> "C", "b4" -> "B"))
    assert(mixedPlan.views.map(v => (v.id.from, v.id.to)).toSet ==
      Set(("C", "B"), ("B", "A"), ("A", "B"), ("B", "C")))
    for (plan <- Seq(ViewGeneration.plan(fav, demo), ViewGeneration.plan(fav, demo, Favorita.demoRoots), mixedPlan))
      assert(Check.viewsBeforeInputs(plan).isEmpty)
  }

  test("the demo batch produces the paper's view structure") {
    val plan = ViewGeneration.plan(fav, demo, Favorita.demoRoots)
    // Edges carrying exactly one shared view for all three queries:
    val byEdge = plan.views.groupBy(v => (v.id.from, v.id.to))
    assert(byEdge(("Stores", "Transactions")).flatMap(_.aggs).size == 1)
    assert(byEdge(("Transactions", "Sales")).flatMap(_.aggs).size == 1)
    assert(byEdge(("Holidays", "Sales")).flatMap(_.aggs).size == 1)
    // Items->Sales serves Q1 and Q2 with a single count column (g(item) is
    // evaluated at Sales, the owner of item).
    assert(byEdge(("Items", "Sales")).flatMap(_.aggs).size == 1)
    // Oil->Sales carries the shared count plus Q3's SUM(oilprize).
    assert(byEdge(("Oil", "Sales")).flatMap(_.aggs).size == 2)
    // Q3 adds the opposite direction Sales->Items.
    assert(byEdge(("Sales", "Items")).flatMap(_.aggs).size == 1)
    assert(plan.views.size == 6)
  }

  test("demo batch: both directions of the Sales-Items edge are materialised") {
    val plan = ViewGeneration.plan(fav, demo, Favorita.demoRoots)
    val dirs = plan.views.map(v => (v.id.from, v.id.to)).toSet
    assert(dirs.contains(("Items", "Sales")) && dirs.contains(("Sales", "Items")))
  }

  test("outputs reference only existing views") {
    val plan = ViewGeneration.plan(fav, demo)
    val ids = plan.views.map(_.id).toSet
    plan.outputs.foreach(o => o.incoming.foreach(dep => assert(ids.contains(dep))))
  }

  test("aggregate names are globally unique") {
    val plan = ViewGeneration.plan(fav, demo)
    val names = plan.views.flatMap(_.aggs.map(_.name))
    assert(names.distinct.size == names.size)
  }

  test("signature dedup is stable under query order") {
    val p1 = ViewGeneration.plan(fav, demo)
    val p2 = ViewGeneration.plan(fav, demo.reverse)
    assert(p1.views.map(_.id).toSet == p2.views.map(_.id).toSet)
    assert(p1.views.flatMap(_.aggs.map(_.sig)).toSet == p2.views.flatMap(_.aggs.map(_.sig)).toSet)
  }

  test("changing a query's root changes its view directions") {
    val q = AggQuery("q", Nil, Seq(Measure.count("c")))
    val atA = ViewGeneration.plan(chain, Seq(q), Map("q" -> "A"))
    val atC = ViewGeneration.plan(chain, Seq(q), Map("q" -> "C"))
    assert(atA.views.map(_.id).toSet == Set(ViewId("C", "B", Seq("c")), ViewId("B", "A", Seq("b"))))
    assert(atC.views.map(_.id).toSet == Set(ViewId("A", "B", Seq("b")), ViewId("B", "C", Seq("c"))))
  }

  test("stats count queries, views and merging") {
    val plan = ViewGeneration.plan(fav, demo, Favorita.demoRoots)
    val s = plan.stats(nGroups = 0)
    assert(s.nQueries == 3)
    assert(s.nAggregates == 3)
    assert(s.nUnmergedViews == 15) // 3 queries x 5 edges
    assert(s.nMergedViews == 6)
    assert(s.nAggColumns == 7)
  }

  test("unknown attributes are rejected") {
    val q = AggQuery("q", Seq("nope"), Seq(Measure.count("c")))
    assertThrows[IllegalArgumentException](ViewGeneration.plan(fav, Seq(q)))
  }

  test("duplicate query names are rejected") {
    val q = AggQuery("q", Nil, Seq(Measure.count("c")))
    assertThrows[IllegalArgumentException](ViewGeneration.plan(fav, Seq(q, q)))
  }

  test("empty batches are rejected") {
    assertThrows[IllegalArgumentException](ViewGeneration.plan(fav, Nil))
  }

  test("single-relation trees need no views") {
    val t = JoinTree(Seq(Relation("X", Seq("x", "y"))), Nil)
    val q = AggQuery("q", Seq("x"), Seq(Measure.sum("s", "y")))
    val plan = ViewGeneration.plan(t, Seq(q))
    assert(plan.views.isEmpty)
    assert(plan.outputs.head.terms.head.childRefs.isEmpty)
  }

  test("a UDF factor over a join attribute stays at the owner") {
    val q = AggQuery("q", Seq("store"),
      Seq(Measure("m", Seq(Factor("item", ScalarFn.G), Factor("date", ScalarFn.H)))))
    val plan = ViewGeneration.plan(fav, Seq(q), Map("q" -> "Sales"))
    // item and date are owned by Sales (the root): all views are pure counts.
    assert(plan.views.forall(_.aggs.forall(_.localFactors.isEmpty)))
    assert(plan.outputs.head.terms.head.localFactors.map(_.attr).toSet == Set("item", "date"))
  }

  test("views carry the batch's group-by attributes that the edge's join keys fix") {
    // Q1 at Sales needs V_Items→Sales(item); byFamily needs (family,item).
    // The Items key fixes family, so both read one view with the same rows.
    val byFamily = AggQuery("byFamily", Seq("family"), Seq(Measure.sum("s", "units")))
    val plan = ViewGeneration.plan(fav, Seq(demo.head, byFamily), Map("byFamily" -> "Sales"))
    assert(plan.views.filter(v => v.id.from == "Items").map(_.id) == Seq(ViewId("Items", "Sales", Seq("family", "item"))))
    // Sales has no key, so nothing rides along from it towards Items.
    val both = ViewGeneration.plan(fav, Seq(demo.head, byFamily), Map("Q1" -> "Items", "byFamily" -> "Items"))
    assert(both.views.filter(v => v.id.from == "Sales").map(_.id) == Seq(ViewId("Sales", "Items", Seq("item"))))
  }

  test("Rk-means' projection and grid plans are rooted at Sales over projection views only") {
    val dims = Seq("txns")
    val proj = ViewGeneration.plan(fav, repro.ml.rkmeans.RkMeans.projectionQueries(dims))
    val dimensions = Set(
      ViewId("Stores", "Transactions", Seq("store")),
      ViewId("Items", "Sales", Seq("item")),
      ViewId("Oil", "Sales", Seq("date")),
      ViewId("Holidays", "Sales", Seq("date")))
    assert(proj.roots.values.toSet == Set("Sales"))
    assert(proj.views.map(_.id).toSet == dimensions + ViewId("Transactions", "Sales", Seq("date", "store", "txns")))
    assert(proj.views.forall(v => repro.core.exec.LmfaoExec.isProjection(fav, v.id)))
    val augmented = fav.copy(relations = fav.relations.map(r =>
      if (r.name == "Transactions") r.copy(attrs = r.attrs :+ "c_txns") else r))
    val grid = ViewGeneration.plan(augmented, Seq(repro.ml.rkmeans.RkMeans.coresetQuery(dims)))
    assert(grid.roots.values.toSet == Set("Sales"))
    assert(grid.views.map(_.id).toSet == dimensions + ViewId("Transactions", "Sales", Seq("c_txns", "date", "store")))
    assert(grid.views.forall(v => repro.core.exec.LmfaoExec.isProjection(augmented, v.id)))
  }
}
