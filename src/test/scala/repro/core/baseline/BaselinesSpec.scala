package repro.core.baseline

import repro.{Oracle, SparkSpec, TestData}
import repro.core.exec.LmfaoExec
import repro.core.query._
import repro.core.viewgen.ViewGeneration

/** The baselines must agree with DuckDB and with the LMFAO engine — the same
  * semantics evaluated three ways.
  */
class BaselinesSpec extends SparkSpec {

  private lazy val (chainTree, chainTables) = TestData.chain(spark)
  private lazy val (starTree, starTables) = TestData.star(spark)

  private val batch = Seq(
    AggQuery("b1", Nil, Seq(Measure.count("c1"))),
    AggQuery("b2", Seq("a"), Seq(Measure.sum("s2", "d"))),
    AggQuery("b3", Seq("d"), Seq(Measure.sum("s3", "a"), Measure.count("c3"))),
    AggQuery("b4", Seq("b"), Seq(Measure("m4", Seq(Factor("a", ScalarFn.G), Factor("c"))))),
  )

  test("joinAll computes the natural join (count matches DuckDB)") {
    val d = Baselines.joinAll(chainTree, chainTables)
    val q = AggQuery("q", Nil, Seq(Measure.count("c")))
    Oracle.assertEquivalent(Baselines.aggOver(d, q),
      SqlRender.querySql(chainTree, q), chainTables.toSeq: _*)
  }

  test("joinAll column set is the union of all attributes") {
    val d = Baselines.joinAll(chainTree, chainTables)
    assert(d.columns.toSet == chainTree.allAttrs)
  }

  test("per-query baseline matches DuckDB on the whole batch") {
    val results = Baselines.runPerQuery(chainTree, chainTables, batch)
    batch.foreach { q =>
      Oracle.assertEquivalent(results(q.name), SqlRender.querySql(chainTree, q), chainTables.toSeq: _*)
    }
  }

  test("shared-join baseline matches DuckDB on the whole batch") {
    val (d, results) = Baselines.runSharedJoin(chainTree, chainTables, batch)
    batch.foreach { q =>
      Oracle.assertEquivalent(results(q.name), SqlRender.querySql(chainTree, q), chainTables.toSeq: _*)
    }
    d.unpersist()
  }

  test("baseline and LMFAO agree on the star schema") {
    val queries = Seq(
      AggQuery("s1", Seq("u"), Seq(Measure.sum("x1", "x"))),
      AggQuery("s2", Seq("k1", "v"), Seq(Measure.count("c2"))),
    )
    val base = Baselines.runPerQuery(starTree, starTables, queries)
    val plan = ViewGeneration.plan(starTree, queries)
    val res = LmfaoExec.run(starTables, plan)
    queries.foreach { q =>
      val a = base(q.name).collect().map(_.toSeq.map(v => Option(v).fold("∅")(_.toString))).sortBy(_.mkString(","))
      val b = res.queryResults(q.name).collect().map(_.toSeq.map(v => Option(v).fold("∅")(_.toString))).sortBy(_.mkString(","))
      assert(a.toSeq == b.toSeq, s"LMFAO vs baseline disagree on ${q.name}")
    }
    res.cleanup()
  }

  test("aggOver applies filters") {
    val d = Baselines.joinAll(chainTree, chainTables)
    val q = TestData.where(AggQuery("q", Seq("b"), Seq(Measure.count("c"))), Predicate("a", CmpOp.Le, 4))
    Oracle.assertEquivalent(Baselines.aggOver(d, q),
      SqlRender.querySql(chainTree, q), chainTables.toSeq: _*)
  }

  test("aggOver column order matches outputColumns") {
    val d = Baselines.joinAll(chainTree, chainTables)
    val q = AggQuery("q", Seq("b"), Seq(Measure.count("c"), Measure.sum("s", "a")))
    assert(Baselines.aggOver(d, q).columns.toSeq == Seq("b", "c", "s"))
  }
}
