package repro.data

import repro.{Check, SparkSpec, TestData}
import repro.core.baseline.Baselines
import repro.core.query.{AggQuery, CmpOp, Measure, Predicate}

class RetailerSpec extends SparkSpec {

  private val sf = 0.001
  private lazy val tree = Retailer.tree(sf)
  private lazy val tables = Retailer.tables(spark, sf)

  test("every relation has its schema's columns") {
    Retailer.relations.foreach { r =>
      assert(tables(r.name).columns.toSeq == r.attrs, s"schema mismatch for ${r.name}")
    }
  }

  test("row counts match the scale factor") {
    assert(tables("Inventory").count() == Retailer.nInventory(sf))
    assert(tables("Location").count() == Retailer.nLocn)
    assert(tables("Census").count() == Retailer.nZip)
    assert(tables("Item").count() == Retailer.nKsn(sf))
    assert(tables("Weather").count() == Retailer.nLocn * Retailer.nDates)
  }

  test("every attribute has a domain hint that bounds its distinct values") {
    import org.apache.spark.sql.functions.countDistinct
    assert(tree.domains.keySet == tree.allAttrs)
    Retailer.relations.foreach { r =>
      val distinct = tables(r.name).agg(countDistinct(r.attrs.head), r.attrs.tail.map(countDistinct(_)): _*)
        .collect()(0).toSeq.map(_.asInstanceOf[Long])
      r.attrs.zip(distinct).foreach { case (a, n) => assert(n <= tree.domains(a), s"$a: $n distinct values") }
    }
  }

  test("generation is deterministic in (sf, seed)") {
    val again = Retailer.tables(spark, sf)
    assert(tables("Inventory").collect().toSeq == again("Inventory").collect().toSeq)
  }

  test("the full join preserves every inventory row") {
    assert(Baselines.joinAll(tree, tables).count() == Retailer.nInventory(sf))
  }

  test("the two-hop Census chain matches DuckDB (group by zip attribute)") {
    Check.lmfaoVsDuck(tree, tables, Seq(
      AggQuery("pop", Seq("population"), Seq(Measure.count("cnt")))))
  }

  test("sum of a Census attribute grouped by an Item attribute matches DuckDB") {
    Check.lmfaoVsDuck(tree, tables, Seq(
      AggQuery("x", Seq("category"), Seq(Measure.sum("s_pop", "population")))))
  }

  test("weather predicates filter correctly through the engine") {
    Check.lmfaoVsDuck(tree, tables, Seq(
      TestData.where(AggQuery("rainy", Seq("rgn"), Seq(Measure.sum("s_units", "inventoryunits"))),
        Predicate("rain", CmpOp.Eq, 1), Predicate("maxtemp", CmpOp.Ge, 20))))
  }

  test("a covariance-style product across relations matches DuckDB") {
    Check.lmfaoVsDuck(tree, tables, Seq(
      AggQuery("cov", Nil, Seq(Measure.sumProduct("p", "prize", "maxtemp")))))
  }

  test("every declared key holds, checked by DuckDB at two seeds") {
    assert(tree.relations.count(_.key.nonEmpty) == 4)
    for (seed <- Seq(100L, 7L)) Check.keysHold(tree, Retailer.tables(spark, sf, seed))
  }
}
