package repro.core.schema

import org.scalatest.funsuite.AnyFunSuite

class RelationSpec extends AnyFunSuite {

  test("relation exposes attributes in order") {
    val r = Relation("R", Seq("a", "b", "c"))
    assert(r.attrs == Seq("a", "b", "c"))
  }

  test("attrSet matches attrs") {
    val r = Relation("R", Seq("a", "b"))
    assert(r.attrSet == Set("a", "b"))
  }

  test("has is membership in attrs") {
    val r = Relation("R", Seq("a", "b"))
    assert(r.has("a") && r.has("b") && !r.has("c"))
  }

  test("empty name is rejected") {
    assertThrows[IllegalArgumentException](Relation("", Seq("a")))
  }

  test("empty attribute list is rejected") {
    assertThrows[IllegalArgumentException](Relation("R", Nil))
  }

  test("duplicate attributes are rejected") {
    assertThrows[IllegalArgumentException](Relation("R", Seq("a", "a")))
  }

  test("a relation declares no key unless given one") {
    assert(Relation("R", Seq("a", "b")).key.isEmpty)
    assert(Relation("R", Seq("a", "b", "c"), key = Seq("a", "b")).key == Seq("a", "b"))
  }

  test("a key attribute that is not an attribute is rejected, naming the relation and the attribute") {
    val e = intercept[IllegalArgumentException](Relation("Rel", Seq("a", "b"), key = Seq("a", "zz")))
    assert(e.getMessage.contains("relation Rel") && e.getMessage.contains("zz"))
  }
}
