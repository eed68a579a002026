package repro.core.viewgen

import org.scalatest.funsuite.AnyFunSuite

import repro.core.query.{AggQuery, Factor, Measure}
import repro.core.schema.{JoinTree, Relation}

/** The fold rule of an output pass and its sum dedup, over one relation
  * R(g, h, x) of 100 rows, so the cube's bound is 10, and the dedup over
  * R joined with S(k, y), where terms read partials of the view S→R.
  */
class OutputPassSpec extends AnyFunSuite {

  private val tree = JoinTree(Seq(Relation("R", Seq("g", "h", "x"))), Nil,
    sizes = Map("R" -> 100L), domains = Map("g" -> 2L, "h" -> 4L, "x" -> 50L))

  private def by(gb: String*) = AggQuery(s"by_${gb.mkString("_")}", gb, Seq(Measure.count("n")))

  private val batch = Seq(by("x", "g"), by("h"), by(), by("g", "h"), by("x"), by("g"))

  private def pass(t: JoinTree, queries: Seq[AggQuery]): OutputPass = {
    val Seq(outputs) = ViewGeneration.plan(t, queries).outputGroups
    OutputPass(t, outputs)
  }

  test("sets fold smallest hint product first while the union's product stays within the bound") {
    val p = pass(tree, batch)
    assert(p.bound == 10L)
    assert(p.folded == Seq(Nil, Seq("g"), Seq("h"), Seq("g", "h")))
    assert(p.sets.head.keys == Seq("g", "h") && p.hint == 8L)
    assert(p.exploded == Seq(Seq("x"), Seq("g", "x")))
    assert(p.sets.map(_.outputs.map(_.query.name).toSet) ==
      Seq(Set("by_", "by_g", "by_h", "by_g_h"), Set("by_x"), Set("by_x_g")))
  }

  test("an attribute without a hint counts as its node's size; without a size only hint-1 sets fold") {
    val unhinted = tree.copy(domains = tree.domains - "h")
    assert(pass(unhinted, batch).folded == Seq(Nil, Seq("g")))
    val unsized = tree.copy(sizes = Map.empty)
    assert(pass(unsized, batch).folded == Seq(Nil))
    assert(pass(unsized.copy(domains = Map("g" -> 1L)), batch).folded == Seq(Nil, Seq("g")))
    // No set fits: every set is its own grouping set.
    val p = pass(tree.copy(sizes = Map("R" -> 5L), domains = Map.empty), Seq(by("g"), by("x")))
    assert(p.folded.isEmpty && p.exploded == Seq(Seq("g"), Seq("x")))
  }

  test("each set's sums are its distinct products, up to the order of the factors") {
    val queries = Seq(
      AggQuery("all", Nil, Seq(Measure.count("n"), Measure.sum("s", "x"))),
      AggQuery("byG", Seq("g"), Seq(Measure.count("n"), Measure.sumProduct("p", "g", "x"))),
      AggQuery("byG2", Seq("g"), Seq(Measure.sumProduct("p", "x", "g"))),
      AggQuery("byX", Seq("x"), Seq(Measure.sumProduct("p", "g", "x"))))
    val p = pass(tree, queries)
    assert(p.folded == Seq(Nil, Seq("g")) && p.exploded == Seq(Seq("x")))
    assert(p.measures == 6)
    // The cube sums 1, x and g·x; the set (x) sums g·x once more.
    assert(p.sets.map(_.sums.size) == Seq(3, 1) && p.sums == 4)
    val cube = p.sets.head
    val Seq(byG, byG2) = cube.outputs.filter(_.query.name.startsWith("byG"))
    assert(cube.sumIndex(byG.terms(1)) == cube.sumIndex(byG2.terms.head))
  }

  test("over a join, two terms are one sum exactly when they read the same partials, in any factor order") {
    val joined = JoinTree(Seq(Relation("R", Seq("g", "k", "x")), Relation("S", Seq("k", "y"))), Seq(("R", "S")),
      sizes = Map("R" -> 100L, "S" -> 10L))
    def global(name: String, attrs: String*) = AggQuery(name, Nil, Seq(Measure("m", attrs.map(Factor(_)))))
    val queries =
      Seq(global("x", "x"), global("xy", "x", "y"), global("gxy", "g", "x", "y"), global("xgy", "x", "g", "y"))
    val Seq(outputs) = ViewGeneration.plan(joined, queries, queries.map(_.name -> "R").toMap).outputGroups
    val Seq(set) = OutputPass(joined, outputs).sets
    val Seq(x, xy, gxy, xgy) = outputs.map(_.terms.head)
    // x and xy both multiply x at R, by different partials of S→R: SUM(1) and SUM(y).
    assert(x.localFactors == xy.localFactors && x.childRefs != xy.childRefs)
    assert(set.sums.size == 3 && set.sumIndex(x) != set.sumIndex(xy))
    // gxy and xgy read the same partial SUM(y) and list g and x in another order.
    assert(gxy.childRefs == xgy.childRefs && gxy.localFactors != xgy.localFactors)
    assert(set.sumIndex(gxy) == set.sumIndex(xgy))
    // Each output term maps to the sum of its own product.
    outputs.flatMap(_.terms).foreach { t =>
      val s = set.sums(set.sumIndex(t))
      assert(s.localFactors.map(_.tag).sorted == t.localFactors.map(_.tag).sorted && s.childRefs == t.childRefs)
    }
  }
}
