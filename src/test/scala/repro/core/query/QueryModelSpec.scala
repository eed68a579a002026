package repro.core.query

import org.scalatest.funsuite.AnyFunSuite

class QueryModelSpec extends AnyFunSuite {

  test("Identity renders a double cast") {
    assert(ScalarFn.Identity.sql("x") == "CAST(x AS DOUBLE)")
    assert(ScalarFn.Identity.tag == "id")
  }

  test("Square renders a self-product") {
    assert(ScalarFn.Square.sql("x") == "(CAST(x AS DOUBLE) * CAST(x AS DOUBLE))")
  }

  test("ModShift renders modulus and offset") {
    val f = ScalarFn.ModShift(97, 3)
    assert(f.sql("item") == "CAST((CAST(item AS BIGINT) % 97) + 3 AS DOUBLE)")
    assert(f.tag == "mod97_3")
  }

  test("ModShift rejects non-positive modulus") {
    assertThrows[IllegalArgumentException](ScalarFn.ModShift(0, 1))
  }

  test("G and H are distinct deterministic UDFs") {
    assert(ScalarFn.G.tag != ScalarFn.H.tag)
  }

  test("factor tag combines function and attribute") {
    assert(Factor("item", ScalarFn.G).tag == "mod97_3(item)")
    assert(Factor("x").tag == "id(x)")
  }

  test("count measure renders SUM(1)") {
    assert(Measure.count("c").sql == "SUM(CAST(1 AS DOUBLE)) AS c")
  }

  test("sum measure renders a single cast factor") {
    assert(Measure.sum("s", "units").sql == "SUM(CAST(units AS DOUBLE)) AS s")
  }

  test("product measure renders factor product") {
    assert(Measure.sumProduct("p", "a", "b").sql == "SUM(CAST(a AS DOUBLE) * CAST(b AS DOUBLE)) AS p")
  }

  test("square measure uses the Square function") {
    assert(Measure.sumSquare("q", "y").sql == "SUM((CAST(y AS DOUBLE) * CAST(y AS DOUBLE))) AS q")
  }

  test("measure attrs collects factor attributes") {
    assert(Measure("m", Seq(Factor("a"), Factor("b", ScalarFn.Square))).attrs == Set("a", "b"))
    assert(Measure.count("c").attrs.isEmpty)
  }

  test("measure requires a name") {
    assertThrows[IllegalArgumentException](Measure("", Nil))
  }

  test("predicate SQL casts to BIGINT") {
    assert(Predicate("x", CmpOp.Le, 5).sql == "CAST(x AS BIGINT) <= 5")
    assert(Predicate("x", CmpOp.Ne, 5).sql == "CAST(x AS BIGINT) <> 5")
    assert(Predicate("x", CmpOp.Eq, 5).sql == "CAST(x AS BIGINT) = 5")
    assert(Predicate("x", CmpOp.Gt, 5).sql == "CAST(x AS BIGINT) > 5")
    assert(Predicate("x", CmpOp.Ge, 5).sql == "CAST(x AS BIGINT) >= 5")
    assert(Predicate("x", CmpOp.Lt, 5).sql == "CAST(x AS BIGINT) < 5")
  }

  test("query validates duplicate group-by attributes") {
    assertThrows[IllegalArgumentException](
      AggQuery("q", Seq("a", "a"), Seq(Measure.count("c"))))
  }

  test("query validates duplicate measure names") {
    assertThrows[IllegalArgumentException](
      AggQuery("q", Nil, Seq(Measure.count("c"), Measure.sum("c", "x"))))
  }

  test("query rejects measure/group-by name collisions") {
    assertThrows[IllegalArgumentException](
      AggQuery("q", Seq("a"), Seq(Measure.count("a"))))
  }

  test("query requires at least one measure") {
    assertThrows[IllegalArgumentException](AggQuery("q", Seq("a"), Nil))
  }

  test("query attrs spans group-by, measures and filters") {
    val q = AggQuery("q", Seq("g"), Seq(Measure("s", Seq(Factor("x"), Predicate("f", CmpOp.Le, 1).indicator))))
    assert(q.attrs == Set("g", "x", "f"))
  }

  test("outputColumns lists group-by then measures") {
    val q = AggQuery("q", Seq("g"), Seq(Measure.count("c"), Measure.sum("s", "x")))
    assert(q.outputColumns == Seq("g", "c", "s"))
  }
}
