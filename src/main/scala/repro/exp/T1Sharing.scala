package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core.group.DependencyGraph
import repro.core.query.AggQuery
import repro.core.schema.JoinTree
import repro.core.viewgen.{SharingStats, ViewGeneration}
import repro.data.Favorita
import repro.ml.linreg.SigmaBatch
import repro.ml.rkmeans.RkMeans
import repro.ml.tree.NodeBatch
import repro.util.Table

/** T1 - Batch sizes and computation sharing.
  *
  * For every workload: how many queries the application issues, how many
  * views a naive one-view-per-(query, edge) decomposition would compute, and
  * how far LMFAO's merging + multi-output grouping shrinks that. Paper
  * anchors: 814 aggregates (LR over full 43-attribute Retailer), 3,141 per
  * decision-tree node, n+1 for Rk-means, and 3 queries -> 7 groups for the
  * running example, planned under the paper's roots; a second row plans it
  * under the engine's own roots.
  */
object T1Sharing {

  /** `roots` pins query roots (`rootOverrides`); empty uses the engine's rule. */
  final case class Workload(name: String, tree: JoinTree, queries: Seq[AggQuery], paperAnchor: String,
                            roots: Map[String, String])

  def workloads(sf: Double): Seq[Workload] = {
    val fav = Favorita.tree(sf)
    val ret = repro.data.Retailer.tree(sf)
    Seq(
      Workload("Favorita demo Q1-Q3 (paper sec 2)", fav, Favorita.demoQueries, "3 queries, 7 groups",
        Favorita.demoRoots),
      Workload("Favorita demo Q1-Q3, engine roots", fav, Favorita.demoQueries, "-", Map.empty),
      Workload("Favorita LR Sigma batch", fav, SigmaBatch.queries(Workloads.favoritaLr), "-", Map.empty),
      Workload("Retailer LR Sigma batch", ret, SigmaBatch.queries(Workloads.retailerLr),
        "814 aggs (43-attr schema)", Map.empty),
      Workload("Retailer DT node batch", ret,
        NodeBatch.queries(Workloads.retailerDt, Workloads.retailerDtLabel, Nil), "3,141 aggs (43-attr schema)",
        Map.empty),
      Workload("Favorita Rk-means Step 1+3", fav,
        RkMeans.projectionQueries(Workloads.favoritaRkDims) :+ RkMeans.jointQuery(Workloads.favoritaRkDims),
        "n+1 queries (n = 3 dims)", Map.empty),
    )
  }

  def stats(w: Workload): SharingStats = {
    val plan = ViewGeneration.plan(w.tree, w.queries, w.roots)
    plan.stats(DependencyGraph.groups(plan).size)
  }

  def run(spark: SparkSession, sf: Double): Table = {
    val rows = workloads(sf).map { w =>
      val s = stats(w)
      Seq(
        w.name,
        s.nQueries.toString,
        s.nAggregates.toString,
        s.nUnmergedViews.toString,
        s.nMergedViews.toString,
        s.nAggColumns.toString,
        s.nGroups.toString,
        s"${s.nAggregates} -> ${s.nOutputSums}",
        w.paperAnchor,
      )
    }
    Table(
      "T1: batch sizes and sharing (queries -> merged views -> groups)",
      Seq("workload", "queries", "aggregates", "views unmerged", "views merged", "agg columns", "groups",
        "output sums (dedup)", "paper anchor"),
      rows,
      notes = Seq(
        "Shape claim: merged views << unmerged views; one view serves many queries.",
        "Our lite schemas have fewer attributes than the paper's (43), so absolute",
        "batch sizes are smaller; the counting formula is checked in unit tests.",
        "Output sums: one per query measure, then the distinct products per grouping",
        "set of each output pass (small sets fold into one cube set by domain hints).",
      ),
    )
  }
}
