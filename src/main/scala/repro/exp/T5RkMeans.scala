package repro.exp

import org.apache.spark.sql.SparkSession

import repro.ml.rkmeans.{RkMeans, WeightedKMeans}
import repro.util.{Table, Timing}

/** T5 - Rk-means clustering quality and coreset size (paper sec 3/sec 4): the grid
  * coreset is a small fraction of |D| and the intra-cluster cost is within a
  * small constant factor of conventional Lloyd's (the demo reports the average
  * relative difference over ten Lloyd's runs; we average over five seeds).
  */
object T5RkMeans {

  def run(spark: SparkSession, sf: Double): Table = {
    val dims = Workloads.favoritaRkDims
    val k = 5
    val kPerDim = 5
    val ds = Workloads.favorita(spark, sf).cache()
    try {
      val (rk, tRk) = Timing.timed {
        RkMeans.run(spark, ds.tree, ds.tables, dims, k = k, kPerDim = kPerDim)
      }
      // π_dims(D), projected once: the points of both costs and of Lloyd's.
      val ((pts, ws), tProj) = Timing.timed(RkMeans.fullProjection(ds.tree, ds.tables, dims))
      val rkCost = WeightedKMeans.cost(pts, ws, rk.centroids)

      val lloydSeeds = Seq(1L, 2L, 3L, 4L, 5L)
      val (lloydCosts, tFits) = Timing.timed {
        lloydSeeds.map(s => WeightedKMeans.cost(pts, ws, WeightedKMeans.fit(pts, ws, k, seed = s).centroids))
      }
      val tLloyd = tProj + tFits
      val lloydAvg = lloydCosts.sum / lloydCosts.size
      val relApprox = (rkCost - lloydAvg) / lloydAvg
      val relSize = rk.coresetSize / rk.datasetSize

      Table(
        s"T5: Rk-means over Favorita dims=${dims.mkString(",")} k=$k at SF=$sf",
        Seq("metric", "value", "paper expectation"),
        Seq(
          Seq("|D| (join size)", f"${rk.datasetSize}%.0f", "120M tuples (full data)"),
          Seq("coreset size |G|", rk.coresetSize.toString, s"<= kPerDim^n = ${math.pow(kPerDim, dims.size).toLong}"),
          Seq("relative coreset size |G|/|D|", f"$relSize%.2e", "'relative size of the grid coreset' << 1"),
          Seq("Rk-means cost on D", f"$rkCost%.6g", "-"),
          Seq("Lloyd's cost on D (avg 5 seeds)", f"$lloydAvg%.6g", "-"),
          Seq("relative approximation", f"$relApprox%.4f", "small constant factor (Rk-means guarantee)"),
          Seq("Rk-means total seconds", Timing.fmt(tRk), "'a few seconds' end-to-end"),
          Seq("Lloyd's comparator seconds", Timing.fmt(tLloyd), "-"),
        ),
        notes = Seq(
          "Steps 1 and 3 (projection batch + grid coreset) run through the LMFAO",
          "engine; steps 2 and 4 are weighted Lloyd's on driver-side data.",
          "Lloyd's comparator seconds: one engine projection of D plus five fits.",
        ),
      )
    } finally ds.uncache()
  }
}
