package repro.ml.rkmeans

import repro.{Check, SparkSpec, TestData}
import repro.core.baseline.Baselines

class RkMeansSpec extends SparkSpec {

  private lazy val (tree, tables) = TestData.star(spark, n = 150)
  private val dims = Seq("x", "u")

  test("projection queries are n group-by counts") {
    val qs = RkMeans.projectionQueries(dims)
    assert(qs.size == 2)
    assert(qs.map(_.groupBy) == Seq(Seq("x"), Seq("u")))
  }

  test("the Step-1 projections match DuckDB") {
    Check.lmfaoVsDuck(tree, tables, RkMeans.projectionQueries(dims))
  }

  test("augment preserves the tree shape and adds assignment columns") {
    val assignments = Map(
      "x" -> (1L to 20L).map(v => v -> (v % 3)).toMap,
      "u" -> (1L to 10L).map(v => v -> (v % 2)).toMap)
    val (t2, tabs2) = RkMeans.augment(tree, tables, dims, assignments)
    assert(t2.edges == tree.edges)
    assert(t2.relationByName("S").attrs.contains("c_x"))
    assert(t2.relationByName("D1").attrs.contains("c_u"))
    assert(tabs2("S").columns.contains("c_x"))
  }

  test("c_dim equals the model's assignment on every projected value") {
    val xs = tables("S").select("x").distinct().collect().map(_.getLong(0)).toSeq
    assert(Seq(4L, 8L).forall(xs.contains))
    // Ids 0, 1 and 2 sit at 10, 2 and 6, out of value order, and values 4
    // and 8 are midpoints, where `assign` takes the first nearest id: 1 at
    // 4 and 0 at 8. The runs are 1..4 -> 1, 5..7 -> 2 and 8.. -> 0. One
    // centroid is one run.
    for (centroids <- Seq(Seq(10.0, 2.0, 6.0), Seq(5.0))) withClue(s"centroids $centroids: ") {
      val model = WeightedKMeans.Model(centroids.map(Array(_)).toArray, 0.0, 0)
      if (centroids.size == 3) assert(model.assign(Array(4.0)) == 1 && model.assign(Array(8.0)) == 0)
      val assignment = xs.map(v => v -> model.assign(Array(v.toDouble)).toLong).toMap
      val (_, augmented) = RkMeans.augment(tree, tables, Seq("x"), Map("x" -> assignment))
      val assigned = augmented("S").select("x", "c_x").distinct().collect().map(r => r.getLong(0) -> r.getLong(1))
      assert(assigned.toMap == assignment && assigned.length == xs.size)
    }
  }

  test("coreset weights sum to |D|") {
    val r = RkMeans.run(spark, tree, tables, dims, k = 3, kPerDim = 3)
    val dCount = Baselines.joinAll(tree, tables).count()
    assert(r.datasetSize == dCount.toDouble)
  }

  test("coreset size is bounded by the grid resolution") {
    val r = RkMeans.run(spark, tree, tables, dims, k = 3, kPerDim = 3)
    assert(r.coresetSize <= math.pow(3, dims.size).toLong)
    assert(r.coresetSize >= 1)
  }

  test("per-dimension clustering returns kPerDim centroids at most") {
    val r = RkMeans.run(spark, tree, tables, dims, k = 3, kPerDim = 4)
    dims.foreach(a => assert(r.perDimCentroids(a).length <= 4))
  }

  test("final centroid count is at most k") {
    val r = RkMeans.run(spark, tree, tables, dims, k = 3, kPerDim = 3)
    assert(r.centroids.length <= 3)
    assert(r.centroids.forall(_.length == dims.size))
  }

  test("Rk-means cost is within a small factor of Lloyd's on D") {
    val k = 3
    val r = RkMeans.run(spark, tree, tables, dims, k = k, kPerDim = 5)
    val (pts, ws) = RkMeans.fullProjection(tree, tables, dims)
    val rkCost = WeightedKMeans.cost(pts, ws, r.centroids)
    val lloydCost = WeightedKMeans.cost(pts, ws, WeightedKMeans.fit(pts, ws, k).centroids)
    // The paper proves a constant-factor approximation; on this easy micro
    // data the factor should be modest.
    assert(rkCost <= lloydCost * 3.0 + 1e-9, s"rk=$rkCost lloyd=$lloydCost")
    assert(rkCost >= lloydCost * 0.5 - 1e-9, "Rk-means cannot beat the optimum by 2x")
  }

  test("grid coreset on a 1-d problem reduces to the per-dim clustering") {
    val r = RkMeans.run(spark, tree, tables, Seq("x"), k = 2, kPerDim = 4)
    assert(r.coresetSize <= 4)
    assert(r.centroids.forall(_.length == 1))
  }

  test("fullLloyd's weighted objective equals cost of its own centroids") {
    val (pts, ws) = RkMeans.fullProjection(tree, tables, dims)
    val lloyd = WeightedKMeans.fit(pts, ws, 3)
    val c = WeightedKMeans.cost(pts, ws, lloyd.centroids)
    assert(math.abs(c - lloyd.cost) < 1e-6 * (1 + lloyd.cost))
  }

  test("deterministic end-to-end for a fixed seed") {
    val a = RkMeans.run(spark, tree, tables, dims, k = 3, kPerDim = 3, seed = 5)
    val b = RkMeans.run(spark, tree, tables, dims, k = 3, kPerDim = 3, seed = 5)
    assert(a.centroids.map(_.toSeq).toSeq == b.centroids.map(_.toSeq).toSeq)
    assert(a.coresetSize == b.coresetSize)
  }

  test("the result does not depend on the number of shuffle partitions") {
    val key = "spark.sql.shuffle.partitions"
    val setting = spark.conf.get(key)
    // Every field, with arrays compared by their elements.
    def fields(r: RkMeans.Result) = (r.centroids.map(_.toSeq).toSeq, r.dims, r.coresetSize, r.datasetSize,
      r.perDimCentroids.map { case (a, cs) => a -> cs.toSeq }, r.coresetCost)
    def runWith(partitions: Int) = {
      spark.conf.set(key, partitions.toLong)
      fields(RkMeans.run(spark, tree, tables, dims, k = 3, kPerDim = 4))
    }
    try assert(runWith(1) == runWith(7))
    finally spark.conf.set(key, setting)
  }

  test("RkMeans.run leaves no persisted RDDs behind") {
    val before = spark.sparkContext.getPersistentRDDs.size
    RkMeans.run(spark, tree, tables, dims, k = 3, kPerDim = 3)
    assert(spark.sparkContext.getPersistentRDDs.size == before)
  }

  test("the grid weights match DuckDB's grid query on the augmented tree") {
    val assignments = dims.map { a =>
      a -> tables(tree.owner(a)).select(a).distinct().collect().map(_.getLong(0)).map(v => v -> v % 3).toMap
    }.toMap
    val (gridTree, gridTables) = RkMeans.augment(tree, tables, dims, assignments)
    Check.lmfaoVsDuck(gridTree, gridTables, Seq(RkMeans.coresetQuery(dims)))
  }
}
