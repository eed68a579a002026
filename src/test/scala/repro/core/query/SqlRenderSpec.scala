package repro.core.query

import org.scalatest.funsuite.AnyFunSuite

import repro.core.schema.{JoinTree, Relation}

class SqlRenderSpec extends AnyFunSuite {

  private val chain = JoinTree(
    Seq(Relation("A", Seq("a", "b")), Relation("B", Seq("b", "c")), Relation("C", Seq("c", "d"))),
    Seq(("A", "B"), ("B", "C")),
  )

  test("fromClause joins in BFS order with USING keys") {
    assert(SqlRender.fromClause(chain) == "A JOIN B USING (b) JOIN C USING (c)")
  }

  test("fromClause handles multi-attribute join keys") {
    val t = JoinTree(
      Seq(Relation("S", Seq("date", "store", "units")), Relation("T", Seq("date", "store", "txns"))),
      Seq(("S", "T")),
    )
    assert(SqlRender.fromClause(t) == "S JOIN T USING (date, store)")
  }

  test("fromClause of a single relation is just its name") {
    val t = JoinTree(Seq(Relation("X", Seq("x"))), Nil)
    assert(SqlRender.fromClause(t) == "X")
  }

  test("querySql renders global aggregates without GROUP BY") {
    val q = AggQuery("q", Nil, Seq(Measure.count("c")))
    assert(SqlRender.querySql(chain, q) ==
      "SELECT SUM(CAST(1 AS DOUBLE)) AS c FROM A JOIN B USING (b) JOIN C USING (c)")
  }

  test("querySql renders group-by queries") {
    val q = AggQuery("q", Seq("a"), Seq(Measure.sum("s", "d")))
    assert(SqlRender.querySql(chain, q) ==
      "SELECT a, SUM(CAST(d AS DOUBLE)) AS s FROM A JOIN B USING (b) JOIN C USING (c) GROUP BY a")
  }

  test("querySql renders conditions as 0/1 factors of the measure") {
    val q = AggQuery("q", Nil, Seq(
      Measure("c", Seq(Predicate("a", CmpOp.Le, 3).indicator, Predicate("d", CmpOp.Eq, 7).indicator))))
    assert(SqlRender.querySql(chain, q) ==
      "SELECT SUM(CAST(CAST(a AS BIGINT) <= 3 AS DOUBLE) * CAST(CAST(d AS BIGINT) = 7 AS DOUBLE)) AS c " +
        "FROM A JOIN B USING (b) JOIN C USING (c)")
  }

  test("querySql renders multiple measures comma-separated") {
    val q = AggQuery("q", Seq("a"), Seq(Measure.count("c"), Measure.sum("s", "d")))
    val sql = SqlRender.querySql(chain, q)
    assert(sql.contains("SUM(CAST(1 AS DOUBLE)) AS c, SUM(CAST(d AS DOUBLE)) AS s"))
  }

  test("the Favorita from-clause touches every relation once") {
    val sql = SqlRender.fromClause(repro.data.Favorita.tree(0.01))
    Seq("Sales", "Transactions", "Stores", "Items", "Oil", "Holidays").foreach { r =>
      assert(sql.split("\\b" + r + "\\b").length == 2, s"$r should appear exactly once in $sql")
    }
  }
}
