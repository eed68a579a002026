package repro.core.exec

import repro.{Oracle, SparkSpec, TestData}
import repro.core.query.{AggQuery, Measure}
import repro.core.viewgen.{ViewGeneration, ViewId}

/** Deep checks of the *intermediate* views: each materialised directional
  * view must equal the corresponding subtree aggregate computed by DuckDB
  * over the base relations.
  */
class ViewContentSpec extends SparkSpec {

  private lazy val (chainTree, chainTables) = TestData.chain(spark)

  private def runPlan(queries: Seq[AggQuery], roots: Map[String, String]) = {
    val plan = ViewGeneration.plan(chainTree, queries, roots)
    (plan, LmfaoExec.run(chainTables, plan))
  }

  test("leaf view C->B is the per-key count of C") {
    val (plan, res) = runPlan(Seq(AggQuery("q", Nil, Seq(Measure.count("c")))), Map("q" -> "A"))
    val vid = ViewId("C", "B", Seq("c"))
    val agg = plan.viewById(vid).aggs.head
    val df = res.viewFrames(vid).select("c", agg.name)
      .withColumnRenamed(agg.name, "cnt")
    Oracle.assertEquivalent(df,
      "SELECT c, SUM(CAST(1 AS DOUBLE)) AS cnt FROM C GROUP BY c",
      "C" -> chainTables("C"))
    res.cleanup()
  }

  test("inner view B->A folds the C view (subtree count per b)") {
    val (plan, res) = runPlan(Seq(AggQuery("q", Nil, Seq(Measure.count("c")))), Map("q" -> "A"))
    val vid = ViewId("B", "A", Seq("b"))
    val agg = plan.viewById(vid).aggs.head
    val df = res.viewFrames(vid).select("b", agg.name).withColumnRenamed(agg.name, "cnt")
    Oracle.assertEquivalent(df,
      "SELECT b, SUM(CAST(1 AS DOUBLE)) AS cnt FROM B JOIN C USING (c) GROUP BY b",
      "B" -> chainTables("B"), "C" -> chainTables("C"))
    res.cleanup()
  }

  test("a sum view carries the subtree partial sum") {
    val (plan, res) = runPlan(Seq(AggQuery("q", Seq("a"), Seq(Measure.sum("s", "d")))), Map("q" -> "A"))
    val vid = ViewId("B", "A", Seq("b"))
    val agg = plan.viewById(vid).aggs.head
    val df = res.viewFrames(vid).select("b", agg.name).withColumnRenamed(agg.name, "s")
    Oracle.assertEquivalent(df,
      "SELECT b, SUM(CAST(d AS DOUBLE)) AS s FROM B JOIN C USING (c) GROUP BY b",
      "B" -> chainTables("B"), "C" -> chainTables("C"))
    res.cleanup()
  }

  test("carried group-by keys appear in the view frame") {
    val (plan, res) = runPlan(Seq(AggQuery("q", Seq("d"), Seq(Measure.count("c0")))), Map("q" -> "A"))
    val vid = ViewId("B", "A", Seq("b", "d"))
    val agg = plan.viewById(vid).aggs.head
    val df = res.viewFrames(vid).select("b", "d", agg.name).withColumnRenamed(agg.name, "cnt")
    Oracle.assertEquivalent(df,
      "SELECT b, d, SUM(CAST(1 AS DOUBLE)) AS cnt FROM B JOIN C USING (c) GROUP BY b, d",
      "B" -> chainTables("B"), "C" -> chainTables("C"))
    res.cleanup()
  }

  test("every merged view of the plan is materialised exactly once") {
    val queries = Seq(
      AggQuery("q1", Nil, Seq(Measure.count("c1"))),
      AggQuery("q2", Seq("d"), Seq(Measure.sum("s2", "a"))))
    val plan = ViewGeneration.plan(chainTree, queries, Map("q1" -> "A", "q2" -> "C"))
    val res = LmfaoExec.run(chainTables, plan)
    assert(res.viewFrames.keySet == plan.views.map(_.id).toSet)
    res.cleanup()
  }

  test("two identical measures in different queries share one view column") {
    val queries = Seq(
      AggQuery("q1", Nil, Seq(Measure.sum("s1", "d"))),
      AggQuery("q2", Nil, Seq(Measure.sum("s2", "d"))))
    val plan = ViewGeneration.plan(chainTree, queries, Map("q1" -> "A", "q2" -> "A"))
    // Identical group-by and measure: all views merge into single columns.
    assert(plan.views.forall(_.aggs.size == 1))
    val res = LmfaoExec.run(chainTables, plan)
    val r1 = res.queryResults("q1").collect()(0).getDouble(0)
    val r2 = res.queryResults("q2").collect()(0).getDouble(0)
    assert(r1 == r2)
    res.cleanup()
  }

  test("cleanup unpersists every cached frame") {
    // Two queries rooted at both ends so the middle views get two consumer
    // groups and are actually materialised.
    val plan = ViewGeneration.plan(chainTree, Seq(
      AggQuery("q1", Nil, Seq(Measure.count("c1"))),
      AggQuery("q2", Seq("b"), Seq(Measure.count("c2")))), Map("q1" -> "A", "q2" -> "A"))
    val res = LmfaoExec.run(chainTables, plan)
    res.queryResults.values.foreach(_.collect())
    res.cleanup()
    res.viewFrames.values.foreach(df => assert(!df.storageLevel.useMemory && !df.storageLevel.useDisk))
  }

  test("opposite-root queries agree through opposite view directions") {
    val plan = ViewGeneration.plan(chainTree, Seq(
      AggQuery("q1", Nil, Seq(Measure.count("c1"))),
      AggQuery("q2", Nil, Seq(Measure.count("c2")))), Map("q1" -> "A", "q2" -> "C"))
    val res = LmfaoExec.run(chainTables, plan)
    assert(res.queryResults("q1").collect()(0).getDouble(0) ==
      res.queryResults("q2").collect()(0).getDouble(0))
    res.cleanup()
  }
}
