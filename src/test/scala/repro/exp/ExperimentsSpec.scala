package repro.exp

import repro.SparkSpec
import repro.util.Table

/** Fast structural checks of the experiment harness (the timed runs live in
  * the bench project; here we verify the plumbing at micro scale).
  */
class ExperimentsSpec extends SparkSpec {

  test("T1 workloads plan successfully and report sharing") {
    T1Sharing.workloads(0.001).foreach { w =>
      val s = T1Sharing.stats(w)
      assert(s.nQueries == w.queries.size)
      assert(s.nMergedViews <= s.nUnmergedViews, w.name)
      assert(s.nGroups > 0, w.name)
    }
  }

  test("T1 demo workload reproduces the paper's example structure") {
    // The first workload pins the paper's roots (Favorita.demoRoots).
    val w = T1Sharing.workloads(0.01).head
    val s = T1Sharing.stats(w)
    assert(s.nQueries == 3)
    assert(s.nUnmergedViews == 15)
    assert(s.nMergedViews == 6)
    assert(s.nGroups == 8)
  }

  test("T1 demo workload under the engine's roots runs the outputs as one group") {
    val w = T1Sharing.workloads(0.01)(1)
    assert(w.roots.isEmpty)
    val s = T1Sharing.stats(w)
    assert(s.nMergedViews == 5)
    assert(s.nGroups == 6)
  }

  test("T1 sharing grows with batch size (LR batches merge heavily)") {
    val lr = T1Sharing.workloads(0.001).find(_.name.contains("Retailer LR")).get
    val s = T1Sharing.stats(lr)
    // 86 queries over 4 edges would be 344 unmerged views; merging must
    // collapse that by at least 4x for the paper's sharing claim to hold.
    assert(s.nUnmergedViews == 344)
    assert(s.nMergedViews * 4 <= s.nUnmergedViews,
      s"merging too weak: ${s.nMergedViews} of ${s.nUnmergedViews}")
  }

  test("T1 counts the Σ batches' output sums before and after dedup") {
    // At SF 0.1 every grouping set of both Σ batches folds into the cube,
    // so each batch evaluates one sum per distinct product.
    val sums = T1Sharing.workloads(0.1).collect {
      case w if w.name.contains("LR Sigma") =>
        val s = T1Sharing.stats(w)
        w.name -> (s.nAggregates, s.nOutputSums)
    }.toMap
    assert(sums == Map("Favorita LR Sigma batch" -> (32, 10), "Retailer LR Sigma batch" -> (86, 36)))
  }

  test("T1 Rk-means workload is n+1 queries") {
    val rk = T1Sharing.workloads(0.001).find(_.name.contains("Rk-means")).get
    assert(rk.queries.size == Workloads.favoritaRkDims.size + 1)
  }

  test("T2 measurement harness produces rows for every method at micro scale") {
    val ds = Workloads.favorita(spark, 0.001).cache()
    val queries = repro.ml.linreg.SigmaBatch.queries(Workloads.favoritaLr).take(6)
    val rows = T2BatchRuntime.measure(ds, queries)
    ds.uncache()
    assert(rows.map(_.method).toSet == Set("LMFAO", "SharedJoin", "PerQuery"))
    assert(rows.forall(r => r.seconds.size == T2BatchRuntime.Reps && r.seconds.forall(_ > 0)))
    assert(rows.forall(r => r.seconds.min <= r.median && r.median <= r.seconds.max))
    assert(rows.forall(_.queries == 6))
  }

  test("table rendering aligns columns and includes notes") {
    val t = Table("title", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")), Seq("note"))
    val r = t.render
    assert(r.contains("== title =="))
    assert(r.contains("| a  | bb |"))
    assert(r.contains("| 33 | 4  |"))
    assert(r.contains("note"))
  }

  test("bench scale factor defaults to 0.1") {
    if (!sys.env.contains("REPRO_SF")) assert(Workloads.benchSf == 0.1)
  }

  test("workload feature specs reference existing attributes") {
    val fav = repro.data.Favorita.tree(0.001)
    val ret = repro.data.Retailer.tree(0.001)
    (Workloads.favoritaLr.contAll ++ Workloads.favoritaLr.categorical)
      .foreach(a => assert(fav.allAttrs.contains(a), a))
    (Workloads.retailerLr.contAll ++ Workloads.retailerLr.categorical)
      .foreach(a => assert(ret.allAttrs.contains(a), a))
    Workloads.retailerDt.foreach(f => assert(ret.allAttrs.contains(f.attr), f.attr))
    Workloads.favoritaRkDims.foreach(a => assert(fav.allAttrs.contains(a), a))
  }
}
