package repro.ml.linreg

import org.scalatest.funsuite.AnyFunSuite

import repro.core.query.ScalarFn

class SigmaBatchSpec extends AnyFunSuite {

  private val f = Features("y", Seq("x1", "x2"), Seq("c1", "c2"))

  test("contAll appends the label") {
    assert(f.contAll == Seq("x1", "x2", "y"))
  }

  test("label must not repeat as a feature") {
    assertThrows[IllegalArgumentException](Features("y", Seq("y"), Nil))
    assertThrows[IllegalArgumentException](Features("y", Nil, Seq("y")))
  }

  test("duplicate features are rejected") {
    assertThrows[IllegalArgumentException](Features("y", Seq("x", "x"), Nil))
    assertThrows[IllegalArgumentException](Features("y", Seq("x"), Seq("x")))
  }

  test("batch size matches the combinatorial formula") {
    assert(SigmaBatch.queries(f).size == SigmaBatch.expectedCount(f))
    // m=3, c=2: 1 + 3 + 6 + 2 + 6 + 1 = 19
    assert(SigmaBatch.expectedCount(f) == 19)
  }

  test("batch size formula for continuous-only features") {
    val c = Features("y", Seq("a", "b", "c"), Nil)
    // m=4: 1 + 4 + 10 = 15
    assert(SigmaBatch.expectedCount(c) == 15)
    assert(SigmaBatch.queries(c).size == 15)
  }

  test("query names are unique") {
    val names = SigmaBatch.queries(f).map(_.name)
    assert(names.distinct.size == names.size)
  }

  test("continuous pairs include squares on the diagonal") {
    val qs = SigmaBatch.queries(f)
    val sq = qs.find(_.name == "sigma_p_x1_x1").get
    assert(sq.measures.head.factors.head.fn == ScalarFn.Square)
    val pr = qs.find(_.name == "sigma_p_x1_x2").get
    assert(pr.measures.head.factors.map(_.attr) == Seq("x1", "x2"))
  }

  test("categorical queries group by the categorical attribute") {
    val qs = SigmaBatch.queries(f)
    assert(qs.find(_.name == "sigma_c_c1").get.groupBy == Seq("c1"))
    assert(qs.find(_.name == "sigma_cs_c1_x2").get.groupBy == Seq("c1"))
    assert(qs.find(_.name == "sigma_cc_c1_c2").get.groupBy == Seq("c1", "c2"))
  }

  test("label interactions are present (cat x label and label square)") {
    val qs = SigmaBatch.queries(f)
    assert(qs.exists(_.name == "sigma_cs_c1_y"))
    assert(qs.exists(_.name == "sigma_p_y_y"))
  }

  test("the Retailer workload matches the formula (86 queries)") {
    val w = repro.exp.Workloads.retailerLr
    assert(SigmaBatch.expectedCount(w) == 86)
    assert(SigmaBatch.queries(w).size == 86)
  }

  test("the Favorita workload matches the formula (32 queries)") {
    val w = repro.exp.Workloads.favoritaLr
    assert(SigmaBatch.expectedCount(w) == 32)
    assert(SigmaBatch.queries(w).size == 32)
  }
}
