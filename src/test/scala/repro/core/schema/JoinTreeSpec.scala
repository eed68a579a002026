package repro.core.schema

import org.scalatest.funsuite.AnyFunSuite

class JoinTreeSpec extends AnyFunSuite {

  // A(a,b) — B(b,c) — C(c,d), with D(b,e) hanging off B.
  private def diamondless: JoinTree = JoinTree(
    Seq(
      Relation("A", Seq("a", "b")),
      Relation("B", Seq("b", "c")),
      Relation("C", Seq("c", "d")),
      Relation("D", Seq("b", "e")),
    ),
    Seq(("A", "B"), ("B", "C"), ("B", "D")),
    sizes = Map("A" -> 100L, "B" -> 10L, "C" -> 5L, "D" -> 7L),
  )

  test("valid tree constructs") {
    val t = diamondless
    assert(t.relations.size == 4)
  }

  test("neighbors are symmetric") {
    val t = diamondless
    assert(t.neighbors("A") == Seq("B"))
    assert(t.neighbors("B").toSet == Set("A", "C", "D"))
  }

  test("joinKeys returns shared attributes in first relation's order") {
    val t = diamondless
    assert(t.joinKeys("A", "B") == Seq("b"))
    assert(t.joinKeys("B", "C") == Seq("c"))
  }

  test("owner picks the first relation in schema order") {
    val t = diamondless
    assert(t.owner("a") == "A")
    assert(t.owner("b") == "A") // A comes before B and D
    assert(t.owner("c") == "B")
    assert(t.owner("d") == "C")
    assert(t.owner("e") == "D")
  }

  test("allAttrs is the union of relation attributes") {
    assert(diamondless.allAttrs == Set("a", "b", "c", "d", "e"))
  }

  test("subtreeNodes cuts exactly one edge") {
    val t = diamondless
    assert(t.subtreeNodes("B", "A") == Set("B", "C", "D"))
    assert(t.subtreeNodes("A", "B") == Set("A"))
    assert(t.subtreeNodes("C", "B") == Set("C"))
  }

  test("subtreeAttrs is the union over subtree nodes") {
    val t = diamondless
    assert(t.subtreeAttrs("B", "A") == Set("b", "c", "d", "e"))
    assert(t.subtreeAttrs("A", "B") == Set("a", "b"))
  }

  test("bottomUpEdges visits children before parents") {
    val t = diamondless
    val edges = t.bottomUpEdges("A")
    assert(edges.toSet == Set(("C", "B"), ("D", "B"), ("B", "A")))
    assert(edges.indexOf(("C", "B")) < edges.indexOf(("B", "A")))
    assert(edges.indexOf(("D", "B")) < edges.indexOf(("B", "A")))
  }

  test("bottomUpEdges from a leaf root") {
    val t = diamondless
    val edges = t.bottomUpEdges("C")
    assert(edges.toSet == Set(("A", "B"), ("D", "B"), ("B", "C")))
    assert(edges.last == (("B", "C")))
  }

  test("joinOrder lists (parent, child) edges breadth-first from the first relation") {
    // A's neighbours are B then D; depth-first would visit C and E before D.
    val t = JoinTree(
      Seq(Relation("A", Seq("a", "b", "d")), Relation("B", Seq("b", "c")), Relation("C", Seq("c", "e")),
        Relation("D", Seq("d", "x")), Relation("E", Seq("e", "y"))),
      Seq(("A", "B"), ("B", "C"), ("A", "D"), ("C", "E")),
    )
    assert(t.joinOrder == Seq("A" -> "B", "A" -> "D", "B" -> "C", "C" -> "E"))
    assert(diamondless.joinOrder == Seq("A" -> "B", "B" -> "C", "B" -> "D"))
    assert(JoinTree(Seq(Relation("X", Seq("x"))), Nil).joinOrder.isEmpty)
  }

  test("sizeOf falls back to 1 for unknown relations") {
    assert(diamondless.sizeOf("A") == 100L)
    assert(JoinTree(Seq(Relation("X", Seq("x"))), Nil).sizeOf("X") == 1L)
  }

  test("a domain hint must name an attribute of the tree and be at least 1") {
    assert(diamondless.copy(domains = Map("a" -> 1L, "e" -> 40L)).domains("e") == 40L)
    val unknown = intercept[IllegalArgumentException](diamondless.copy(domains = Map("z" -> 3L)))
    assert(unknown.getMessage.contains("attribute z"))
    val zero = intercept[IllegalArgumentException](diamondless.copy(domains = Map("c" -> 0L)))
    assert(zero.getMessage.contains("attribute c"))
  }

  test("single-relation tree is valid") {
    val t = JoinTree(Seq(Relation("X", Seq("x", "y"))), Nil)
    assert(t.bottomUpEdges("X").isEmpty)
  }

  test("disconnected graph is rejected") {
    assertThrows[IllegalArgumentException] {
      JoinTree(
        Seq(Relation("A", Seq("a", "b")), Relation("B", Seq("b")), Relation("C", Seq("c"))),
        Seq(("A", "B"), ("A", "B")), // duplicate edge leaves C unreachable
      )
    }
  }

  test("edge without shared attributes is rejected") {
    assertThrows[IllegalArgumentException] {
      JoinTree(Seq(Relation("A", Seq("a")), Relation("B", Seq("b"))), Seq(("A", "B")))
    }
  }

  test("wrong edge count is rejected") {
    assertThrows[IllegalArgumentException] {
      JoinTree(Seq(Relation("A", Seq("a", "b")), Relation("B", Seq("b"))), Nil)
    }
  }

  test("self edge is rejected") {
    assertThrows[IllegalArgumentException] {
      JoinTree(Seq(Relation("A", Seq("a")), Relation("B", Seq("a"))), Seq(("A", "A")))
    }
  }

  test("edge to unknown relation is rejected") {
    assertThrows[IllegalArgumentException] {
      JoinTree(Seq(Relation("A", Seq("a")), Relation("B", Seq("a"))), Seq(("A", "Z")))
    }
  }

  test("running intersection violation is rejected") {
    // attribute x in A and C but not in B, with A—B—C a chain
    assertThrows[IllegalArgumentException] {
      JoinTree(
        Seq(Relation("A", Seq("x", "b")), Relation("B", Seq("b", "c")), Relation("C", Seq("c", "x"))),
        Seq(("A", "B"), ("B", "C")),
      )
    }
  }

  test("running intersection in a star: two leaves holding x without the centre are rejected") {
    val e = intercept[IllegalArgumentException] {
      JoinTree(
        Seq(Relation("C", Seq("a", "b", "c")), Relation("L1", Seq("a", "x")), Relation("L2", Seq("b", "x")),
          Relation("L3", Seq("c"))),
        Seq(("C", "L1"), ("C", "L2"), ("C", "L3")),
      )
    }
    assert(e.getMessage.contains("attribute x"))
  }

  test("running intersection in a star: the centre and two leaves holding x are accepted") {
    val t = JoinTree(
      Seq(Relation("C", Seq("a", "b", "c", "x")), Relation("L1", Seq("a", "x")), Relation("L2", Seq("b", "x")),
        Relation("L3", Seq("c"))),
      Seq(("C", "L1"), ("C", "L2"), ("C", "L3")),
    )
    assert(t.joinKeys("L1", "C") == Seq("a", "x") && t.joinKeys("L2", "C") == Seq("b", "x"))
  }

  test("duplicate relation names are rejected") {
    assertThrows[IllegalArgumentException] {
      JoinTree(Seq(Relation("A", Seq("a")), Relation("A", Seq("a"))), Seq(("A", "A")))
    }
  }

  test("the Favorita and Retailer trees validate") {
    assert(repro.data.Favorita.tree(0.01).relations.size == 6)
    assert(repro.data.Retailer.tree(0.01).relations.size == 5)
  }

  test("determined follows keys over two hops (Census via Location)") {
    val t = repro.data.Retailer.tree(0.01)
    assert(t.determined("Location", "Inventory") ==
      Set("locn", "zip", "rgn", "population", "medianage", "households"))
    assert(t.determined("Weather", "Inventory") == repro.data.Retailer.weather.attrSet)
  }

  test("determined stops at a keyless relation (Inventory)") {
    val t = repro.data.Retailer.tree(0.01)
    // Only the join key: Inventory has no key, so Item and Weather are not reached.
    assert(t.determined("Inventory", "Location") == Set("locn"))
    assert(t.determined("Inventory", "Item") == Set("ksn"))
  }

  test("determined stops where the key is not inside the join keys") {
    // B's key (b, c) is wider than its join key b with A; C's key c lies
    // within the join key c with B.
    val t = JoinTree(
      Seq(
        Relation("A", Seq("a", "b")),
        Relation("B", Seq("b", "c", "e"), key = Seq("b", "c")),
        Relation("C", Seq("c", "d"), key = Seq("c")),
      ),
      Seq(("A", "B"), ("B", "C")))
    assert(t.determined("B", "A") == Set("b"))
    assert(t.determined("C", "B") == Set("c", "d"))
    assert(diamondless.determined("B", "A") == Set("b"))
  }
}
