package repro.core.group

import org.scalatest.funsuite.AnyFunSuite

import repro.core.query.{AggQuery, Measure}
import repro.core.schema.{JoinTree, Relation}
import repro.core.viewgen.ViewGeneration
import repro.data.Favorita

class DependencyGraphSpec extends AnyFunSuite {

  private val fav = Favorita.tree(0.01)
  private val demoPlan = ViewGeneration.plan(fav, Favorita.demoQueries)
  // The demo batch under the paper's roots (Fig. 2: Q3 at Items).
  private val paperPlan = ViewGeneration.plan(fav, Favorita.demoQueries, Favorita.demoRoots)

  test("every view and output lands in exactly one group") {
    val gs = DependencyGraph.groups(demoPlan)
    assert(gs.flatMap(_.views).map(_.id).sorted(Ordering.by((v: repro.core.viewgen.ViewId) => v.label)) ==
      demoPlan.views.map(_.id).sortBy(_.label))
    assert(gs.flatMap(_.outputs).map(_.query.name).sorted == demoPlan.outputs.map(_.query.name).sorted)
  }

  test("groups are keyed by node and direction") {
    val gs = DependencyGraph.groups(demoPlan)
    gs.foreach { g =>
      g.views.foreach(v => assert(v.id.from == g.node && g.direction.contains(v.id.to)))
      g.outputs.foreach(o => assert(o.root == g.node && g.direction.isEmpty))
    }
  }

  test("the demo batch forms 8 groups (paper merges to 7 via in-group lookups)") {
    // 6 directional view groups + Sales outputs (Q1,Q2) + Items outputs (Q3).
    val gs = DependencyGraph.groups(paperPlan)
    assert(gs.size == 8)
    assert(gs.count(_.direction.isEmpty) == 2)
  }

  test("Q1 and Q2 share one multi-output group at Sales") {
    val gs = DependencyGraph.groups(paperPlan)
    val salesOut = gs.filter(g => g.node == "Sales" && g.direction.isEmpty)
    assert(salesOut.size == 1)
    assert(salesOut.head.outputs.map(_.query.name).toSet == Set("Q1", "Q2"))
  }

  test("group order satisfies dependencies") {
    val gs = DependencyGraph.groups(demoPlan)
    val produced = scala.collection.mutable.Set.empty[repro.core.viewgen.ViewId]
    gs.foreach { g =>
      g.incoming.foreach(dep => assert(produced.contains(dep), s"group ${g.label} before its input ${dep.label}"))
      produced ++= g.produced
    }
  }

  test("groups come in plan order: directional groups by their first view, then outputs by their first query") {
    val chain = JoinTree(
      Seq(Relation("A", Seq("a", "b")), Relation("B", Seq("b", "c")), Relation("C", Seq("c", "d"))),
      Seq(("A", "B"), ("B", "C")))
    val mixed = Seq(
      AggQuery("atC", Seq("d"), Seq(Measure.sum("s", "a"))),
      AggQuery("atA", Seq("a"), Seq(Measure.count("n"))),
      AggQuery("atC2", Nil, Seq(Measure.count("n"))),
      AggQuery("atB", Seq("b", "c"), Seq(Measure.sumProduct("p", "a", "d"))))
    val mixedPlan =
      ViewGeneration.plan(chain, mixed, Map("atC" -> "C", "atA" -> "A", "atC2" -> "C", "atB" -> "B"))
    for ((name, plan) <- Seq("demo" -> demoPlan, "mixed roots" -> mixedPlan)) withClue(s"$name: ") {
      val (directional, outputs) = DependencyGraph.groups(plan).span(_.direction.nonEmpty)
      assert(outputs.nonEmpty && outputs.forall(_.direction.isEmpty))
      def increasing(xs: Seq[Int]) = xs.zip(xs.drop(1)).forall { case (x, y) => x < y }
      val firstViews = directional.map(g => plan.views.indexOf(g.views.head))
      assert(increasing(firstViews), firstViews)
      directional.foreach(g => assert(increasing(g.views.map(plan.views.indexOf))))
      val queryIndex = plan.queries.map(_.name).zipWithIndex.toMap
      val firstQueries = outputs.map(g => queryIndex(g.outputs.head.query.name))
      assert(increasing(firstQueries), firstQueries)
      outputs.foreach(g => assert(increasing(g.outputs.map(o => queryIndex(o.query.name)))))
    }
    assert(DependencyGraph.groups(mixedPlan).filter(_.outputs.nonEmpty).map(_.outputs.map(_.query.name)) ==
      Seq(Seq("atC", "atC2"), Seq("atA"), Seq("atB")))
  }

  test("group members share the same incoming view set") {
    // Construct a case with different key sets on one edge: one query carries
    // a group-by attribute, the other does not.
    val chain = JoinTree(
      Seq(Relation("A", Seq("a", "b")), Relation("B", Seq("b", "c")), Relation("C", Seq("c", "d"))),
      Seq(("A", "B"), ("B", "C")))
    val q1 = AggQuery("q1", Nil, Seq(Measure.count("c1")))
    val q2 = AggQuery("q2", Seq("d"), Seq(Measure.count("c2")))
    val plan = ViewGeneration.plan(chain, Seq(q1, q2), Map("q1" -> "A", "q2" -> "A"))
    val gs = DependencyGraph.groups(plan)
    // Edge B->A hosts two merged views with different incoming sets -> 2 groups.
    assert(gs.count(g => g.node == "B" && g.direction.contains("A")) == 2)
    gs.foreach { g =>
      val sets = (g.views.map(_.incoming.toSet) ++ g.outputs.map(_.incoming.toSet)).distinct
      assert(sets.size == 1)
    }
  }

  test("edges expose producer-consumer pairs") {
    val gs = DependencyGraph.groups(paperPlan)
    val es = DependencyGraph.edges(gs)
    es.foreach { case (producer, consumer) =>
      assert(consumer.incoming.exists(producer.produced.contains))
    }
    // Q3's group at Items consumes the Sales->Items view group.
    val itemsOut = gs.find(g => g.node == "Items" && g.direction.isEmpty).get
    assert(es.exists { case (p, c) => c == itemsOut && p.node == "Sales" && p.direction.contains("Items") })
  }

  test("groups at a leaf relation have no incoming views") {
    val gs = DependencyGraph.groups(demoPlan)
    val leafGroups = gs.filter(g => Set("Stores", "Oil", "Holidays", "Items").contains(g.node) && g.direction.nonEmpty)
    leafGroups.foreach(g => assert(g.incoming.isEmpty))
  }

  test("directional groups never contain outputs and vice versa") {
    val gs = DependencyGraph.groups(demoPlan)
    gs.foreach { g =>
      if (g.direction.nonEmpty) assert(g.outputs.isEmpty) else assert(g.views.isEmpty)
    }
  }

  test("under the engine's roots the demo batch forms 5 views and 6 groups, one output group at Sales") {
    val gs = DependencyGraph.groups(demoPlan)
    assert(demoPlan.views.size == 5)
    assert(gs.size == 6)
    val outs = gs.filter(_.outputs.nonEmpty)
    assert(outs.map(g => g.node -> g.outputs.map(_.query.name).toSet) == Seq("Sales" -> Set("Q1", "Q2", "Q3")))
  }

  test("the Favorita and Retailer Sigma batches each run as one output group at the fact table") {
    for ((tree, features, fact) <- Seq(
        (fav, repro.exp.Workloads.favoritaLr, "Sales"),
        (repro.data.Retailer.tree(0.01), repro.exp.Workloads.retailerLr, "Inventory"))) {
      val batch = repro.ml.linreg.SigmaBatch.queries(features)
      val outs = DependencyGraph.groups(ViewGeneration.plan(tree, batch)).filter(_.outputs.nonEmpty)
      assert(outs.map(g => g.node -> g.outputs.size) == Seq(fact -> batch.size), fact)
    }
  }
}
