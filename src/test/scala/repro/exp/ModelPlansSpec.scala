package repro.exp

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.optimizer.{BuildLeft, BuildRight}
import org.apache.spark.sql.execution.LocalTableScanExec
import org.apache.spark.sql.execution.exchange.BroadcastExchangeExec
import org.apache.spark.sql.execution.joins.BroadcastHashJoinExec

import repro.{Check, SparkSpec}
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
  * no batch has a view that a later batch of its model could read. Its run
  * inlines every dimension relation into the fact table's frame, so no
  * broadcast waits for another.
  */
class ModelPlansSpec extends SparkSpec {

  /** The CART batch of one tree level: node i's queries renamed `n<i>_…`,
    * as `DecisionTree` runs a level.
    */
  private def level(features: Seq[TreeFeature], label: String, paths: Seq[Seq[Predicate]]): Seq[AggQuery] =
    paths.zipWithIndex.flatMap { case (conds, i) =>
      NodeBatch.queries(features, label, conds).map(q => q.copy(name = s"n${i}_${q.name}"))
    }

  /** The batches `RkMeans.run` runs: Step 1's `projectionPlan` over
    * `tables`, and, when Step 1 does not fold the joint query, the Step-3
    * grid batch over the tree and tables that `RkMeans.augment` builds from
    * them.
    */
  private def rkMeans(name: String, tree: JoinTree, tables: Map[String, DataFrame], dims: Seq[String]) = {
    val step1 = RkMeans.projectionPlan(tree, dims).queries
    (s"$name projections", tree, step1, tables) +: Option.when(!step1.contains(RkMeans.jointQuery(dims))) {
      val assignments = dims.map(a => a -> Map(1L -> 0L, 2L -> 1L, 3L -> 0L)).toMap
      val (gridTree, gridTables) = RkMeans.augment(tree, tables, dims, assignments)
      (s"$name grid", gridTree, Seq(RkMeans.coresetQuery(dims)), gridTables)
    }.toSeq
  }

  /** Favorita's and Retailer's tables at SF 0.001. Each join's side and
    * each coalesce follow the tree's sizes, not the rows, so these tables
    * run the plans of the larger trees.
    */
  private lazy val (favTables, retTables) = (Favorita.tables(spark, 0.001), Retailer.tables(spark, 0.001))

  /** Every batch the models run over the Favorita and Retailer trees at
    * scale `sf`, each with the tables it runs over, augmented
    * for Rk-means' grid batches.
    */
  private def modelBatches(sf: Double): Seq[(String, JoinTree, Seq[AggQuery], Map[String, DataFrame])] = {
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
    val (favTree, retTree) = (Favorita.tree(sf), Retailer.tree(sf))
    Seq(
      ("Favorita Σ", favTree, SigmaBatch.queries(Workloads.favoritaLr)),
      ("Retailer Σ", retTree, SigmaBatch.queries(Workloads.retailerLr)),
      ("perfbench retailer-lr Σ", retTree, SigmaBatch.queries(perfbenchRetailerLr)),
      ("perfbench favorita-lr Σ", favTree, SigmaBatch.queries(perfbenchFavoritaLr)),
      ("perfbench retailer-cart root", retTree, level(prize, "inventoryunits", Seq(Nil))),
      ("perfbench retailer-cart leaves", retTree,
        level(prize, "inventoryunits", Seq(Seq(Predicate("prize", CmpOp.Le, 50)), Seq(Predicate("prize", CmpOp.Gt, 50))))),
      ("Retailer CART root", retTree, level(Workloads.retailerDt, Workloads.retailerDtLabel, Seq(Nil))),
      ("Retailer CART level", retTree, level(Workloads.retailerDt, Workloads.retailerDtLabel, retailerPaths)),
      ("Retailer CART leaves", retTree, level(Workloads.retailerDt.take(1), Workloads.retailerDtLabel, retailerPaths)),
      ("Favorita CART root", favTree, level(favoritaDt, "units", Seq(Nil))),
      ("Favorita CART level", favTree, level(favoritaDt, "units", favoritaPaths)),
    ).map { case (name, tree, batch) => (name, tree, batch, if (tree == favTree) favTables else retTables) } ++
      rkMeans("perfbench favorita-rkmeans", favTree, favTables, Seq("txns")) ++
      rkMeans("T5 Rk-means", favTree, favTables, Workloads.favoritaRkDims)
  }

  /** Every model batch at SF 0.01 and 0.1, its plan, and the executed
    * plans of its run.
    */
  private lazy val executedBatches = for {
    sf <- Seq(0.01, 0.1)
    (name, tree, batch, tables) <- modelBatches(sf)
    plan = ViewGeneration.plan(tree, batch)
  } yield (s"$name at SF $sf", plan, Check.collectedPlans(spark)(LmfaoExec.run(tables, plan).cleanup()))

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

  test("Rk-means runs one batch when Step 1 folds π_dims(D) into its cube, and two when it does not") {
    for (sf <- Seq(0.01, 0.1)) withClue(s"SF $sf: ") {
      val fav = Favorita.tree(sf)
      def step1(tree: JoinTree, dims: Seq[String]) = {
        val plan = RkMeans.projectionPlan(tree, dims)
        val Seq(outputs) = plan.outputGroups
        (plan.queries.contains(RkMeans.jointQuery(dims)), OutputPass(tree, outputs))
      }
      val batches = modelBatches(sf).map(_._1)
      assert(batches.filter(_.startsWith("perfbench favorita-rkmeans")) == Seq("perfbench favorita-rkmeans projections"))
      val (txnsJoint, txns) = step1(fav, Seq("txns"))
      assert(txnsJoint && txns.exploded.isEmpty && txns.sets.map(_.keys) == Seq(Seq("txns")), txns)
      // Hint product 4,000, within the bound at both scales.
      val (unitsOilJoint, unitsOil) = step1(fav, Seq("units", "oilprize"))
      assert(unitsOilJoint && unitsOil.sets.map(_.keys) == Seq(Seq("oilprize", "units")), unitsOil)
      // Without hints no set folds.
      assert(!step1(fav.copy(domains = Map.empty), Seq("txns"))._1)
      assert(batches.filter(_.startsWith("T5 Rk-means")) == Seq("T5 Rk-means projections", "T5 Rk-means grid"))
      val (t5Joint, t5) = step1(fav, Workloads.favoritaRkDims)
      assert(!t5Joint && t5.exploded.contains(Seq("txns")), t5)
    }
  }

  test("every model batch over Favorita and Retailer is one output group at the fact table over projections") {
    val broken = for {
      sf <- Seq(0.01, 0.1)
      (name, tree, batch, _) <- modelBatches(sf)
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

  test("every model batch runs its broadcasts side by side, and the grid ships no assignment table") {
    val broken = for {
      (name, _, plans) <- executedBatches
      executed <- plans
      broadcasts = executed.collect { case b: BroadcastExchangeExec => b }
      problem <- Option.when(broadcasts.isEmpty)("no broadcast") ++
        Check.nestedBroadcasts(executed).map(b => s"a broadcast under another: ${b.simpleString(200)}") ++
        broadcasts.flatMap(_.child.collect { case t: LocalTableScanExec => s"a local table under a broadcast: $t" })
    } yield s"$name: $problem"
    assert(broken.isEmpty, broken.mkString("\n", "\n", ""))
  }

  test("explain lists every broadcast join that the model batches' runs execute, with its side") {
    // Counted by join, not by exchange: two broadcasts with one plan share an
    // exchange (Oil's and Holidays' dates, when nothing else of them is read).
    val Broadcast = "broadcast (relation|view|frame)".r
    val broken = for {
      (name, plan, plans) <- executedBatches
      explain = LmfaoExec.explain(plan)
      listed = Broadcast.findAllMatchIn(explain).map(m => if (m.group(1) == "frame") BuildLeft else BuildRight).toSeq
      executed = plans.flatMap(_.collect { case j: BroadcastHashJoinExec => j.buildSide })
      if listed.map(_.toString).sorted != executed.map(_.toString).sorted
    } yield s"$name: explain lists broadcasts $listed, the run executed $executed\n$explain"
    assert(broken.isEmpty, broken.mkString("\n", "\n", ""))
  }
}
