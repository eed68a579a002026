package repro.ml.rkmeans

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}

import repro.{Check, Oracle, SparkSpec, TestData}
import repro.core.baseline.Baselines
import repro.core.query.{LocalRow, SqlRender}
import repro.core.schema.JoinTree
import repro.data.Favorita

class RkMeansSpec extends SparkSpec {

  private lazy val (tree, tables) = TestData.star(spark, n = 150)
  private val dims = Seq("x", "u")

  /** Favorita at SF 0.01, where the output pass's cube bound is 6,000. */
  private lazy val (favTree, favTables) = (Favorita.tree(0.01), Favorita.tables(spark, 0.01))

  /** Every field of a result, with arrays compared by their elements. */
  private def fields(r: RkMeans.Result) = (r.centroids.map(_.toSeq).toSeq, r.dims, r.coresetSize, r.datasetSize,
    r.perDimCentroids.map { case (a, cs) => a -> cs.toSeq }, r.coresetCost)

  /** `RkMeans.run`'s result and the number of SQL collects it ran. */
  private def runCounted(tree: JoinTree, dims: Seq[String]): (RkMeans.Result, Int) = {
    var r: RkMeans.Result = null
    val collects = Check.collectedPlans(spark) { r = RkMeans.run(spark, tree, favTables, dims, k = 4, kPerDim = 5) }
    (r, collects.size)
  }

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

  test("the grid rolled up from Step 1 gives the result of the grid batch, in one SQL action instead of two") {
    for (dims <- Seq(Seq("txns"), Seq("units", "oilprize"))) withClue(s"dims $dims: ") {
      val (folded, foldedActions) = runCounted(favTree, dims)
      val (unfolded, unfoldedActions) = runCounted(favTree.copy(domains = Map.empty), dims)
      assert(foldedActions == 1 && unfoldedActions == 2)
      assert(fields(folded) == fields(unfolded))
    }
  }

  test("the rolled-up grid matches DuckDB's grid query on the tree augmented with the model's assignments") {
    for (dims <- Seq(Seq("txns"), Seq("units", "oilprize"))) withClue(s"dims $dims: ") {
      val (k, kPerDim) = (4, 5)
      val r = RkMeans.run(spark, favTree, favTables, dims, k = k, kPerDim = kPerDim)
      val (pts, ws) = RkMeans.fullProjection(favTree, favTables, dims)
      val joint = pts.zip(ws).map { case (p, w) => LocalRow(p.map(_.toLong).toSeq, Seq(w)) }.toSeq
      val assignments = dims.zipWithIndex.map { case (a, i) =>
        val model = WeightedKMeans.Model(r.perDimCentroids(a).map(Array(_)), 0.0, 0)
        a -> pts.map(p => p(i).toLong -> model.assign(Array(p(i))).toLong).toMap
      }.toMap
      val grid = RkMeans.rollUp(joint, dims, assignments)
      // The model's own grid: Step 4 over it gives the model's centroids.
      val gridPoints = grid.map(g => dims.zip(g.keys).map { case (a, c) => r.perDimCentroids(a)(c.toInt) }.toArray)
      val step4 = WeightedKMeans.fit(gridPoints.toArray, grid.map(_.measures.head).toArray, k, seed = 42)
      assert(grid.size == r.coresetSize && grid.map(_.measures.head).sum == r.datasetSize)
      assert(step4.centroids.map(_.toSeq).toSeq == r.centroids.map(_.toSeq).toSeq)

      val q = RkMeans.coresetQuery(dims)
      val (gridTree, gridTables) = RkMeans.augment(favTree, favTables, dims, assignments)
      val schema = StructType(q.groupBy.map(StructField(_, LongType)) :+ StructField(q.measures.head.name, DoubleType))
      val rolledUp = spark.createDataFrame(grid.map(g => Row.fromSeq(g.keys ++ g.measures)).asJava, schema)
      Oracle.assertEquivalent(rolledUp, SqlRender.querySql(gridTree, q), gridTables.toSeq: _*)
    }
  }

  test("an empty join fails before Step 2, naming the dimension whose projection is empty") {
    // S's k1 values are 1..5; shifted D1 keys match none of them. A filter
    // that keeps no S row empties D too.
    val dangling = tables.updated("D1", tables("D1").withColumn("k1", col("k1") + 100))
    val filtered = tables.updated("S", tables("S").filter(col("x") < 0))
    for ((name, ts) <- Seq("dangling keys" -> dangling, "a filter" -> filtered)) withClue(s"$name: ") {
      val e = intercept[IllegalArgumentException](RkMeans.run(spark, tree, ts, dims, k = 3, kPerDim = 3))
      assert(e.getMessage.contains("projection of D on dimension x is empty"), e.getMessage)
    }
  }
}
