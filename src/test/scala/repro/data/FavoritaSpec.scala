package repro.data

import repro.{Check, SparkSpec}
import repro.core.baseline.Baselines
import repro.core.group.DependencyGraph
import repro.core.query.{AggQuery, Measure}
import repro.core.viewgen.ViewGeneration

class FavoritaSpec extends SparkSpec {

  private val sf = 0.001
  private lazy val tree = Favorita.tree(sf)
  private lazy val tables = Favorita.tables(spark, sf)

  test("every relation has its schema's columns") {
    Favorita.relations.foreach { r =>
      assert(tables(r.name).columns.toSeq == r.attrs, s"schema mismatch for ${r.name}")
    }
  }

  test("row counts match the scale factor") {
    assert(tables("Sales").count() == Favorita.nSales(sf))
    assert(tables("Transactions").count() == Favorita.nDates * Favorita.nStores)
    assert(tables("Stores").count() == Favorita.nStores)
    assert(tables("Items").count() == Favorita.nItems(sf))
    assert(tables("Oil").count() == Favorita.nDates)
    assert(tables("Holidays").count() == Favorita.nDates)
  }

  test("every attribute has a domain hint that bounds its distinct values") {
    import org.apache.spark.sql.functions.countDistinct
    assert(tree.domains.keySet == tree.allAttrs)
    Favorita.relations.foreach { r =>
      val distinct = tables(r.name).agg(countDistinct(r.attrs.head), r.attrs.tail.map(countDistinct(_)): _*)
        .collect()(0).toSeq.map(_.asInstanceOf[Long])
      r.attrs.zip(distinct).foreach { case (a, n) => assert(n <= tree.domains(a), s"$a: $n distinct values") }
    }
  }

  test("generation is deterministic in (sf, seed)") {
    val again = Favorita.tables(spark, sf)
    assert(tables("Sales").collect().toSeq == again("Sales").collect().toSeq)
    assert(tables("Items").collect().toSeq == again("Items").collect().toSeq)
  }

  test("different seeds give different data") {
    val other = Favorita.tables(spark, sf, seed = 99)
    assert(tables("Sales").collect().toSeq != other("Sales").collect().toSeq)
  }

  test("foreign keys are dense: the full join preserves every sales row") {
    // Every dimension is unique per key, so |D| == |Sales|.
    assert(Baselines.joinAll(tree, tables).count() == Favorita.nSales(sf))
  }

  test("attribute domains stay in their documented ranges") {
    import org.apache.spark.sql.functions._
    val s = tables("Sales").agg(
      min("date") as "dmin", max("date") as "dmax",
      min("store") as "smin", max("store") as "smax",
      min("units") as "umin", max("units") as "umax").collect()(0)
    assert(s.getAs[Long]("dmin") >= 1 && s.getAs[Long]("dmax") <= Favorita.nDates)
    assert(s.getAs[Long]("smin") >= 1 && s.getAs[Long]("smax") <= Favorita.nStores)
    assert(s.getAs[Long]("umin") >= 1 && s.getAs[Long]("umax") <= 50)
  }

  test("the paper's demo queries Q1-Q3 match DuckDB through the engine") {
    Check.lmfaoVsDuck(tree, tables, Favorita.demoQueries)
  }

  test("demo queries are correct under the paper's explicit root assignment") {
    Check.lmfaoVsDuck(tree, tables, Favorita.demoQueries,
      Map("Q1" -> "Sales", "Q2" -> "Sales", "Q3" -> "Items"))
  }

  test("a two-hop query through Transactions-Stores matches DuckDB") {
    Check.lmfaoVsDuck(tree, tables, Seq(
      AggQuery("hop", Seq("city"), Seq(Measure.sum("s_units", "units"), Measure.count("cnt")))))
  }

  test("group-by over attributes of three different relations matches DuckDB") {
    Check.lmfaoVsDuck(tree, tables, Seq(
      AggQuery("tri", Seq("cluster", "family", "htype"), Seq(Measure.count("cnt")))))
  }

  test("every declared key holds, checked by DuckDB at two seeds") {
    assert(tree.relations.count(_.key.nonEmpty) == 5)
    for (seed <- Seq(0L, 99L)) Check.keysHold(tree, Favorita.tables(spark, sf, seed))
  }

  test("the demo batch under the engine's roots runs as one output group at Sales and matches DuckDB") {
    // SF 0.01 sizes, under which Sales is the largest relation; sizes only
    // steer the plan, so the micro tables still give the right answers.
    val sized = Favorita.tree(0.01)
    val plan = ViewGeneration.plan(sized, Favorita.demoQueries)
    val outs = DependencyGraph.groups(plan).filter(_.outputs.nonEmpty)
    assert(outs.map(g => g.node -> g.outputs.size) == Seq("Sales" -> 3))
    Check.lmfaoVsDuck(sized, tables, Favorita.demoQueries)
  }
}
