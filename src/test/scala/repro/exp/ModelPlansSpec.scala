package repro.exp

import repro.SparkSpec
import repro.core.exec.LmfaoExec
import repro.core.group.DependencyGraph
import repro.core.query.{AggQuery, CmpOp, Predicate}
import repro.core.schema.JoinTree
import repro.core.viewgen.{OutputPass, ViewGeneration}
import repro.data.{Favorita, Retailer}
import repro.ml.linreg.{Features, SigmaBatch}
import repro.ml.rkmeans.RkMeans
import repro.ml.tree.{FeatureKind, NodeBatch, TreeFeature}

/** The batches the models run over Favorita and Retailer, planned by the
  * engine's own root rule. Each batch is one output group at the fact table,
  * and every view of it is a projection, so a run of it caches no view and
  * no batch has a view that a later batch of its model could read.
  */
class ModelPlansSpec extends SparkSpec {

  /** The CART batch of one tree level: node i's queries renamed `n<i>_…`,
    * as `DecisionTree` runs a level.
    */
  private def level(features: Seq[TreeFeature], label: String, paths: Seq[Seq[Predicate]]): Seq[AggQuery] =
    paths.zipWithIndex.flatMap { case (conds, i) =>
      NodeBatch.queries(features, label, conds).map(q => q.copy(name = s"n${i}_${q.name}"))
    }

  /** Rk-means' Step-1 batch and its Step-3 grid batch over the tree that
    * `RkMeans.augment` builds.
    */
  private def rkMeans(name: String, tree: JoinTree, sf: Double, dims: Seq[String]) = {
    val assignments = dims.map(a => a -> Map(1L -> 0L, 2L -> 1L)).toMap
    val (gridTree, _) = RkMeans.augment(spark, tree, Favorita.tables(spark, sf), dims, assignments)
    Seq((s"$name projections", tree, RkMeans.projectionQueries(dims)),
      (s"$name grid", gridTree, Seq(RkMeans.coresetQuery(dims))))
  }

  test("the Σ batches fold into a cube; CART's continuous features and wide Rk-means projections stay exploded") {
    for (sf <- Seq(0.01, 0.1)) withClue(s"SF $sf: ") {
      val (fav, ret) = (Favorita.tree(sf), Retailer.tree(sf))
      def pass(tree: JoinTree, batch: Seq[AggQuery]) = {
        val plan = ViewGeneration.plan(tree, batch)
        val Seq(outputs) = plan.outputGroups
        (OutputPass(tree, outputs), LmfaoExec.explain(plan))
      }
      val (retailerSigma, _) = pass(ret, SigmaBatch.queries(Workloads.retailerLr))
      assert(retailerSigma.exploded.isEmpty, retailerSigma)
      val (perfbenchLr, perfbenchExplain) = pass(ret, SigmaBatch.queries(Features("inventoryunits", Seq("prize"),
        Seq("category"))))
      assert(perfbenchLr.exploded.isEmpty && perfbenchLr.sets.head.keys == Seq("category"))
      if (sf == 0.01) assert(perfbenchExplain.contains("cube (category) hint 40 <= 4200 folds () (category); sums 9 -> 6"))
      val (cart, cartExplain) = pass(ret, level(Workloads.retailerDt, Workloads.retailerDtLabel, Seq(Nil)))
      Workloads.retailerDt.filter(_.kind == FeatureKind.Continuous).foreach { f =>
        assert(cart.exploded.contains(Seq(f.attr)), cartExplain)
      }
      val (rk, _) = pass(fav, RkMeans.projectionQueries(Workloads.favoritaRkDims))
      assert(rk.exploded.contains(Seq("txns")), rk)
    }
  }

  test("every model batch over Favorita and Retailer is one output group at the fact table over projections") {
    // perfbench's two regression feature sets; its CART and Rk-means sets
    // are the single feature prize and the single dimension txns.
    val perfbenchRetailerLr = Features("inventoryunits", Seq("prize"), Seq("category"))
    val perfbenchFavoritaLr = Features("units", Seq("txns", "oilprize"), Seq("family", "promo"))
    val prize = Seq(TreeFeature("prize", FeatureKind.Continuous))
    val favoritaDt = Seq(TreeFeature("txns", FeatureKind.Continuous), TreeFeature("oilprize", FeatureKind.Continuous),
      TreeFeature("family", FeatureKind.Categorical), TreeFeature("city", FeatureKind.Categorical),
      TreeFeature("htype", FeatureKind.Categorical))
    val (rgn, maxtemp) = (Predicate("rgn", CmpOp.Eq, 2), Predicate("maxtemp", CmpOp.Le, 20))
    val retailerPaths = Seq(Seq(rgn, maxtemp), Seq(rgn, maxtemp.copy(op = CmpOp.Gt)), Seq(rgn.copy(op = CmpOp.Ne)))
    val favoritaPaths = Seq(Seq(Predicate("city", CmpOp.Eq, 3)), Seq(Predicate("city", CmpOp.Ne, 3)))

    val broken = for {
      sf <- Seq(0.01, 0.1)
      (fav, ret) = (Favorita.tree(sf), Retailer.tree(sf))
      (name, tree, batch) <- Seq(
        ("Favorita Σ", fav, SigmaBatch.queries(Workloads.favoritaLr)),
        ("Retailer Σ", ret, SigmaBatch.queries(Workloads.retailerLr)),
        ("perfbench retailer-lr Σ", ret, SigmaBatch.queries(perfbenchRetailerLr)),
        ("perfbench favorita-lr Σ", fav, SigmaBatch.queries(perfbenchFavoritaLr)),
        ("perfbench retailer-cart root", ret, level(prize, "inventoryunits", Seq(Nil))),
        ("perfbench retailer-cart leaves", ret,
          level(prize, "inventoryunits", Seq(Seq(Predicate("prize", CmpOp.Le, 50)), Seq(Predicate("prize", CmpOp.Gt, 50))))),
        ("Retailer CART root", ret, level(Workloads.retailerDt, Workloads.retailerDtLabel, Seq(Nil))),
        ("Retailer CART level", ret, level(Workloads.retailerDt, Workloads.retailerDtLabel, retailerPaths)),
        ("Retailer CART leaves", ret, level(Workloads.retailerDt.take(1), Workloads.retailerDtLabel, retailerPaths)),
        ("Favorita CART root", fav, level(favoritaDt, "units", Seq(Nil))),
        ("Favorita CART level", fav, level(favoritaDt, "units", favoritaPaths)),
      ) ++ rkMeans("perfbench favorita-rkmeans", fav, sf, Seq("txns")) ++
        rkMeans("T5 Rk-means", fav, sf, Workloads.favoritaRkDims)
      // The fact tables: Sales in Favorita, Inventory in Retailer.
      fact = if (tree.relationByName.contains("Sales")) "Sales" else "Inventory"
      plan = ViewGeneration.plan(tree, batch)
      outputGroups = DependencyGraph.groups(plan).filter(_.outputs.nonEmpty)
      problem <- Option.when(outputGroups.size != 1)(s"${outputGroups.size} output groups") ++
        plan.roots.collect { case (q, r) if r != fact => s"$q rooted at $r" } ++
        plan.views.collect { case v if !LmfaoExec.isProjection(tree, v.id) => s"aggregated view ${v.id.label}" }
    } yield s"$name at SF $sf: $problem"
    assert(broken.isEmpty, broken.mkString("\n", "\n", ""))
  }
}
