package repro.ml.rkmeans

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, when}

import repro.core.exec.LmfaoExec
import repro.core.query.{AggQuery, LocalRow, Measure}
import repro.core.schema.JoinTree
import repro.core.viewgen.ViewGeneration

/** Rk-means over the non-materialised join D (paper §3): a constant-factor
  * k-means approximation via a grid coreset.
  *
  *   Step 1  per-dimension weighted projections — n group-by count queries,
  *           run as ONE LMFAO batch (they share every count view);
  *   Step 2  weighted 1-d k-means per projection → assignment relations A_j;
  *   Step 3  grid coreset: GROUP BY C1..Cn SUM(1) over D ⋈ A_1 ⋈ … ⋈ A_n,
  *           realised by adding each A_j to the owner relation of X_j as a
  *           column expression and running the coreset query through the
  *           engine;
  *   Step 4  weighted k-means on the coreset grid.
  */
object RkMeans {

  final case class Result(
      centroids: Array[Array[Double]],      // final k centroids over the dims
      dims: Seq[String],
      coresetSize: Long,                     // |G|: occupied grid points
      datasetSize: Double,                   // |D|
      perDimCentroids: Map[String, Array[Double]],
      coresetCost: Double,                   // step-4 objective on the coreset
  )

  def projectionQueries(dims: Seq[String]): Seq[AggQuery] =
    dims.map(a => AggQuery(s"rk_proj_$a", Seq(a), Seq(Measure.count(s"w_$a"))))

  def coresetQuery(dims: Seq[String]): AggQuery =
    AggQuery("rk_grid", dims.map(a => s"c_$a"), Seq(Measure.count("w_grid")))

  /** Rows sorted by their keys. k-means++ seeding picks points by index, so
    * every point set is put in this order before it is clustered: the
    * clustering then does not depend on the order in which Spark returns
    * the rows, which changes with the partitioning.
    */
  private def byKeys(rows: Seq[LocalRow]): Seq[LocalRow] = rows.sortBy(_.keys)(Ordering.Implicits.seqOrdering)

  /** Steps 1–4. `kPerDim` is the number of 1-d clusters per projection (the
    * grid resolution), `k` the final cluster count.
    */
  def run(spark: SparkSession, tree: JoinTree, tables: Map[String, DataFrame],
          dims: Seq[String], k: Int, kPerDim: Int, seed: Long = 42): Result = {
    require(dims.nonEmpty, "need at least one clustering dimension")

    // Step 1: one LMFAO batch for all n projections.
    val projRes = LmfaoExec.run(tables, ViewGeneration.plan(tree, projectionQueries(dims)))
    val projections: Map[String, Seq[(Long, Double)]] =
      try projectionQueries(dims).map { q =>
        q.groupBy.head -> byKeys(AggQuery.collect(q, projRes.queryResults(q.name)))
          .map(r => (r.keys.head, r.measures.head))
      }.toMap
      finally projRes.cleanup()

    // Step 2: weighted 1-d k-means per dimension → assignment maps.
    val perDim: Map[String, WeightedKMeans.Model] = dims.map { a =>
      val pts = projections(a).map { case (v, _) => Array(v.toDouble) }.toArray
      val ws = projections(a).map(_._2).toArray
      a -> WeightedKMeans.fit(pts, ws, kPerDim, seed = seed + a.hashCode)
    }.toMap
    val assignments: Map[String, Map[Long, Long]] = dims.map { a =>
      a -> projections(a).map { case (v, _) => v -> perDim(a).assign(Array(v.toDouble)).toLong }.toMap
    }.toMap

    // Step 3: add each A_j to the owner relation of X_j, then one grid query.
    val (gridTree, gridTables) = augment(tree, tables, dims, assignments)
    val grid = coresetQuery(dims)
    val gridRes = LmfaoExec.run(gridTables, ViewGeneration.plan(gridTree, Seq(grid)))
    val gridRows =
      try byKeys(AggQuery.collect(grid, gridRes.queryResults(grid.name)))
      finally gridRes.cleanup()
    val gridPoints = gridRows.map { r =>
      dims.zip(r.keys).map { case (a, c) => perDim(a).centroids(c.toInt)(0) }.toArray
    }.toArray
    val gridWeights = gridRows.map(_.measures.head).toArray
    val datasetSize = gridWeights.sum

    // Step 4: weighted k-means on the coreset.
    val finalModel = WeightedKMeans.fit(gridPoints, gridWeights, k, seed = seed)

    Result(
      centroids = finalModel.centroids,
      dims = dims,
      coresetSize = gridRows.length.toLong,
      datasetSize = datasetSize,
      perDimCentroids = dims.map(a => a -> perDim(a).centroids.map(_(0))).toMap,
      coresetCost = finalModel.cost,
    )
  }

  /** Extend the owner relation of each dimension with its centroid-assignment
    * column c_dim, returning the augmented tree and tables. The column is one
    * `CASE WHEN dim <= hi THEN cluster …` over the assignment's values in
    * order, one branch per run of values with the same cluster, `hi` the
    * run's last value: exact on every value the assignment maps, and NULL
    * above the last one. Rk-means maps every value of π_dim(D), and no other
    * value of the owner relation reaches D, so the grid is the one over the
    * inner join with the assignment relation, with no join and no table to
    * ship.
    * The join tree shape is unchanged, so the running intersection property
    * is preserved; no row is added, so every declared key still holds and is
    * kept. The tree keeps its domain hints and hints each c_dim by the
    * number of clusters its assignment uses, at most `kPerDim`.
    */
  def augment(tree: JoinTree, tables: Map[String, DataFrame],
              dims: Seq[String], assignments: Map[String, Map[Long, Long]])
      : (JoinTree, Map[String, DataFrame]) = {
    var newTables = tables
    var newRelations = tree.relations
    dims.foreach { a =>
      require(assignments(a).nonEmpty, s"no values to assign for dimension $a")
      val owner = tree.owner(a)
      val runs = assignments(a).toSeq.sortBy(_._1).foldLeft(List.empty[(Long, Long)]) {
        case ((_, c) :: rest, (v, cluster)) if c == cluster => (v, c) :: rest
        case (acc, run) => run :: acc
      }.reverse
      val dim = col(a)
      val cluster = runs.tail.foldLeft(when(dim <= runs.head._1, runs.head._2)) {
        case (cases, (hi, c)) => cases.when(dim <= hi, c)
      }
      newTables = newTables.updated(owner, newTables(owner).withColumn(s"c_$a", cluster))
      newRelations = newRelations.map { r =>
        if (r.name == owner) r.copy(attrs = r.attrs :+ s"c_$a") else r
      }
    }
    val clusters = dims.map(a => s"c_$a" -> assignments(a).values.toSet.size.max(1).toLong)
    (JoinTree(newRelations, tree.edges, tree.sizes, tree.domains ++ clusters), newTables)
  }

  /** π_dims(D) with multiplicities: the distinct dim-tuples of D as points,
    * weighted by their counts, in key order. Weighted Lloyd's over these
    * points (`WeightedKMeans.fit`) is the paper's quality comparator, with
    * the same objective as unweighted Lloyd's over all of D, and
    * `WeightedKMeans.cost` over them is the cost of any centroids on D.
    */
  def fullProjection(tree: JoinTree, tables: Map[String, DataFrame],
                     dims: Seq[String]): (Array[Array[Double]], Array[Double]) = {
    val q = AggQuery("rk_full", dims, Seq(Measure.count("w_full")))
    val res = LmfaoExec.run(tables, ViewGeneration.plan(tree, Seq(q)))
    val rows = try byKeys(AggQuery.collect(q, res.queryResults(q.name))) finally res.cleanup()
    (rows.map(_.keys.map(_.toDouble).toArray).toArray, rows.map(_.measures.head).toArray)
  }
}
