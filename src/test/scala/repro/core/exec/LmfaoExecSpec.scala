package repro.core.exec

import java.util.Properties
import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.optimizer.{BuildLeft, BuildRight}
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.execution.{GenerateExec, LocalTableScanExec, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanExec
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.BroadcastExchangeExec
import org.apache.spark.sql.execution.joins.{BroadcastHashJoinExec, SortMergeJoinExec}
import org.apache.spark.sql.functions.{col, lit, raise_error, when}
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}
import org.apache.spark.storage.StorageLevel

import repro.{Check, Oracle, SparkSpec, TestData}
import repro.core.group.DependencyGraph
import repro.core.query._
import repro.core.schema.JoinTree
import repro.core.viewgen.{OutputPass, ViewGeneration, ViewId}
import repro.ml.linreg.{Features, SigmaBatch}

/** Engine-vs-DuckDB oracle tests over the micro schemas: every result the
  * engine produces is diffed against DuckDB running the textbook SQL over the
  * base relations.
  */
class LmfaoExecSpec extends SparkSpec {

  private lazy val (chainTree, chainTables) = TestData.chain(spark)
  private lazy val (starTree, starTables) = TestData.star(spark)
  private lazy val (singleTree, singleTables) = TestData.single(spark)
  private lazy val (keyedChainTree, keyedChainTables) = TestData.keyedChain(spark)
  private lazy val (keyedStarTree, keyedStarTables) = TestData.keyedStar(spark)
  private lazy val (deepTree, deepTables) = TestData.deepChain(spark)
  private lazy val (snowTree, snowTables) = TestData.snowflake(spark)

  private def q(name: String, groupBy: Seq[String], measures: Seq[Measure],
                conds: Seq[Predicate] = Nil) = TestData.where(AggQuery(name, groupBy, measures), conds: _*)

  // Six queries rooted at the middle relation B: one output group with two
  // passes (GROUP BY b and the global one) of three queries each, over B
  // joined with the views A→B (keyed on b) and C→B (keyed on c).
  private val atB = Seq(
    q("g1", Seq("b"), Seq(Measure.count("c"))),
    q("g2", Seq("b"), Seq(Measure.sum("s", "a"), Measure.sumSquare("s2", "d"))),
    q("g3", Seq("b"), Seq(Measure.sumProduct("p", "a", "d"))),
    q("e1", Nil, Seq(Measure.count("c"))),
    q("e2", Nil, Seq(Measure.sum("s", "d"))),
    q("e3", Nil, Seq(Measure.sumProduct("p", "a", "c"), Measure.count("n"))),
  )
  private val rootB = atB.map(_.name -> "B").toMap

  // Roots A, A, C and B: the views C→B(c), B→A(b), A→B(b) and B→C(c).
  private val mixedRoots = Seq(
    q("b1", Nil, Seq(Measure.count("c1"))),
    q("b2", Seq("a"), Seq(Measure.sum("s2", "d"))),
    q("b3", Seq("d"), Seq(Measure.sum("s3", "a"), Measure.count("c3"))),
    q("b4", Seq("b", "c"), Seq(Measure.sumProduct("p4", "a", "d"))),
  )

  // Root B of the chain, sized so that its cube's bound is `bound`; b takes
  // the values 1..7 in B, and c the values 1..5.
  private def hinted(bound: Long, domains: (String, Long)*) =
    chainTree.copy(sizes = chainTree.sizes.updated("B", bound * 10), domains = domains.toMap)
  private val byBC = Seq(
    q("all", Nil, Seq(Measure.count("n"), Measure.sum("s", "a"))),
    q("byB", Seq("b"), Seq(Measure.count("n"), Measure.sumProduct("p", "a", "d"))),
    q("byC", Seq("c"), Seq(Measure.sum("s", "a"), Measure.count("n"))),
    q("byBC", Seq("b", "c"), Seq(Measure.sumSquare("s2", "d"), Measure.count("n"))),
    q("byCB", Seq("c", "b"), Seq(Measure.count("n"))),
  )
  private val rootBC = byBC.map(_.name -> "B").toMap

  /** The output pass of `batch`'s one output group. */
  private def outputPass(tree: JoinTree, batch: Seq[AggQuery], roots: Map[String, String]): OutputPass = {
    val Seq(outputs) = ViewGeneration.plan(tree, batch, roots).outputGroups
    OutputPass(tree, outputs)
  }

  /** Whether the one output pass that `body` collects copies its frame. */
  private def explodes(body: => Unit): Boolean = {
    val Seq(pass) = Check.collectedPlans(spark)(body)
    pass.exists(_.isInstanceOf[GenerateExec])
  }

  /** Join kinds and keys, sorted, of the one collected pass that joins,
    * among the queries that `body` executes.
    */
  private def passJoins(body: => Unit): Seq[(String, String)] = {
    val Seq(joins) = Check.collectedPlans(spark)(body).map(joinKeys).filter(_.nonEmpty)
    joins.sorted
  }

  /** The local properties of each Spark job that `body` starts, in
    * submission order. Listener events arrive in that order, so the jobs
    * between two marker jobs are exactly the body's.
    */
  private def jobsOf(body: => Unit): Seq[Option[Properties]] = {
    val sc = spark.sparkContext
    val Marker = "repro.test.marker"
    val seen = new ConcurrentLinkedQueue[Option[Properties]]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = seen.add(Option(e.properties))
    }
    def marker(name: String): Unit = {
      sc.setLocalProperty(Marker, name)
      try sc.parallelize(Seq(1)).count() finally sc.setLocalProperty(Marker, null)
    }
    def isMarker(name: String)(p: Option[Properties]) = p.exists(_.getProperty(Marker) == name)
    sc.addSparkListener(listener)
    try {
      marker("begin")
      body
      marker("end")
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (!seen.asScala.exists(isMarker("end")) && System.nanoTime() < deadline) Thread.sleep(10)
      seen.asScala.toSeq.dropWhile(!isMarker("begin")(_)).drop(1).takeWhile(!isMarker("end")(_))
    } finally sc.removeSparkListener(listener)
  }

  /** Join kind and key names of each hash or sort-merge join of a physical
    * plan, looking into cached relations. The engine joins a group's frame
    * (left) with an incoming view (right), so a broadcast join names the side
    * it builds.
    */
  private def joinKeys(plan: SparkPlan): Seq[(String, String)] = {
    def keys(ks: Seq[Expression]) = ks.flatMap(_.references.map(_.name)).distinct.mkString(",")
    def go(p: SparkPlan): Seq[(String, String)] = p.flatMap {
      case s: InMemoryTableScanExec => go(s.relation.cachedPlan)
      case j: BroadcastHashJoinExec if j.buildSide == BuildLeft => Seq("broadcast frame" -> keys(j.leftKeys))
      case j: BroadcastHashJoinExec if j.buildSide == BuildRight => Seq("broadcast view" -> keys(j.leftKeys))
      case j: SortMergeJoinExec => Seq("sort-merge" -> keys(j.leftKeys))
      case _ => Nil
    }
    go(plan)
  }

  test("global count over the chain join") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Nil, Seq(Measure.count("c")))))
  }

  test("global sum over an attribute of the root relation") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Nil, Seq(Measure.sum("s", "a")))))
  }

  test("global sum over an attribute of a leaf relation") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Nil, Seq(Measure.sum("s", "d")))))
  }

  test("global sum over a join attribute") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Nil, Seq(Measure.sum("s", "b")))))
  }

  test("group-by on a root attribute") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Seq("a"), Seq(Measure.count("c")))))
  }

  test("group-by on a leaf attribute (carried keys)") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Seq("d"), Seq(Measure.count("c")))))
  }

  test("group-by on a middle join attribute") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Seq("c"), Seq(Measure.count("c0")))))
  }

  test("group-by with a sum from the opposite end of the chain") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Seq("d"), Seq(Measure.sum("s", "a")))))
  }

  test("two group-by attributes from different relations") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Seq("a", "d"), Seq(Measure.count("c")))))
  }

  test("multi-measure query computes all measures in one pass") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Seq("b"), Seq(Measure.count("c"), Measure.sum("s1", "a"), Measure.sumSquare("s2", "d")))))
  }

  test("product measure across relations") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Nil, Seq(Measure.sumProduct("p", "a", "d")))))
  }

  test("product measure within one relation") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Seq("c"), Seq(Measure.sumProduct("p", "a", "b")))))
  }

  test("UDF factors g and h") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Seq("b"), Seq(Measure("m", Seq(Factor("a", ScalarFn.G), Factor("d", ScalarFn.H)))))))
  }

  test("square of a join attribute") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(q("q", Nil, Seq(Measure.sumSquare("s", "c")))))
  }

  test("three-factor product measure") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Nil, Seq(Measure("m", Seq(Factor("a"), Factor("c"), Factor("d")))))))
  }

  test("same query is correct at every root") {
    for (root <- Seq("A", "B", "C")) {
      Check.lmfaoVsDuck(chainTree, chainTables,
        Seq(q(s"q$root", Seq("b"), Seq(Measure.sum("s", "d")))), Map(s"q$root" -> root))
    }
  }

  test("filter on the root relation") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Seq("b"), Seq(Measure.count("c")), Seq(Predicate("a", CmpOp.Le, 5)))))
  }

  test("filter on a leaf relation") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Seq("a"), Seq(Measure.sum("s", "d")), Seq(Predicate("d", CmpOp.Gt, 4)))))
  }

  test("filter on a join attribute applies everywhere") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Nil, Seq(Measure.count("c")), Seq(Predicate("c", CmpOp.Ne, 2)))))
  }

  test("conjunction of filters") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("q", Seq("b"), Seq(Measure.count("c")),
        Seq(Predicate("a", CmpOp.Ge, 2), Predicate("d", CmpOp.Lt, 8)))))
  }

  test("a condition excluding every tuple yields zero sums in every group") {
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("grouped", Seq("b"), Seq(Measure.count("c")), Seq(Predicate("a", CmpOp.Gt, 999)))))
    Check.lmfaoVsDuck(chainTree, chainTables, Seq(
      q("global", Nil, Seq(Measure.count("c")), Seq(Predicate("a", CmpOp.Gt, 999)))))
  }

  test("a batch of mixed queries with mixed roots") {
    Check.lmfaoVsDuck(chainTree, chainTables, mixedRoots)
  }

  test("star: global count with duplicate dimension keys (multiplicity)") {
    Check.lmfaoVsDuck(starTree, starTables, Seq(q("q", Nil, Seq(Measure.count("c")))))
  }

  test("star: group-by fact attribute, sum of dimension attribute") {
    Check.lmfaoVsDuck(starTree, starTables, Seq(q("q", Seq("x"), Seq(Measure.sum("s", "u")))))
  }

  test("star: group-by attributes of both dimensions") {
    Check.lmfaoVsDuck(starTree, starTables, Seq(q("q", Seq("u", "v"), Seq(Measure.count("c")))))
  }

  test("star: product of attributes from both dimensions") {
    Check.lmfaoVsDuck(starTree, starTables, Seq(q("q", Seq("k1"), Seq(Measure.sumProduct("p", "u", "v")))))
  }

  test("star: query rooted at a dimension") {
    Check.lmfaoVsDuck(starTree, starTables,
      Seq(q("q", Seq("u"), Seq(Measure.sum("s", "x")))), Map("q" -> "D1"))
  }

  test("single relation: group-by and sums without any views") {
    Check.lmfaoVsDuck(singleTree, singleTables, Seq(
      q("q1", Seq("g"), Seq(Measure.count("c"), Measure.sum("s", "x"), Measure.sumSquare("s2", "y"))),
      q("q2", Nil, Seq(Measure.sumProduct("p", "x", "y"))),
    ))
  }

  test("missing relation DataFrame is rejected") {
    val plan = repro.core.viewgen.ViewGeneration.plan(chainTree,
      Seq(q("q", Nil, Seq(Measure.count("c")))))
    assertThrows[IllegalArgumentException](LmfaoExec.run(chainTables - "B", plan))
  }

  test("relation DataFrame missing an attribute is rejected") {
    val plan = repro.core.viewgen.ViewGeneration.plan(chainTree,
      Seq(q("q", Nil, Seq(Measure.count("c")))))
    val broken = chainTables.updated("B", chainTables("B").drop("c"))
    assertThrows[IllegalArgumentException](LmfaoExec.run(broken, plan))
  }

  test("result column order matches the query's outputColumns") {
    val query = q("q", Seq("b"), Seq(Measure.count("c"), Measure.sum("s", "a")))
    val plan = repro.core.viewgen.ViewGeneration.plan(chainTree, Seq(query))
    val res = LmfaoExec.run(chainTables, plan)
    assert(res.queryResults("q").columns.toSeq == Seq("b", "c", "s"))
    res.cleanup()
  }

  test("combined output passes match DuckDB with caching on and off") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.size
    val plan = repro.core.viewgen.ViewGeneration.plan(chainTree, atB, rootB)
    assert(plan.views.size == 2)
    val res = LmfaoExec.run(chainTables, plan)
    val outGroups = res.groups.filter(_.outputs.nonEmpty)
    assert(outGroups.map(_.outputs.size) == Seq(6))
    // Caching is on for the two computed views A→B and C→B, and off for the
    // output group: one uncached pass, collected once.
    assert(sc.getPersistentRDDs.size - before == plan.views.size)
    assert(res.queryResults.values.forall(_.queryExecution.executedPlan.isInstanceOf[LocalTableScanExec]))
    res.cleanup()
    assert(sc.getPersistentRDDs.size == before)
    Check.lmfaoVsDuck(chainTree, chainTables, atB, rootB)
  }

  test("a group of several views over one incoming view caches exactly the computed views") {
    val sc = spark.sparkContext
    val batch = Seq(q("q1", Seq("c"), Seq(Measure.count("n"))), q("q2", Nil, Seq(Measure.count("n"))))
    val roots = Map("q1" -> "A", "q2" -> "A")
    val plan = ViewGeneration.plan(chainTree, batch, roots)
    val toA = DependencyGraph.groups(plan).filter(g => g.node == "B" && g.direction.contains("A"))
    assert(toA.map(_.views.map(_.id).toSet) == Seq(Set(ViewId("B", "A", Seq("b")), ViewId("B", "A", Seq("b", "c")))))
    assert(toA.head.incoming == Seq(ViewId("C", "B", Seq("c"))))
    val before = sc.getPersistentRDDs.size
    val res = LmfaoExec.run(chainTables, plan)
    try {
      res.queryResults.values.foreach(_.collect())
      assert(res.viewFrames.size == 3)
      assert(sc.getPersistentRDDs.size - before == res.viewFrames.size)
    } finally res.cleanup()
    assert(sc.getPersistentRDDs.size == before)
    Check.lmfaoVsDuck(chainTree, chainTables, batch, roots)
  }

  test("the smaller side of each join is broadcast") {
    // Sizes A=60, B=30, C=20: C→B is joined into B by broadcasting the view,
    // A→B by broadcasting B's frame.
    val sizedPlan = repro.core.viewgen.ViewGeneration.plan(chainTree, atB, rootB)
    assert(passJoins(LmfaoExec.run(chainTables, sizedPlan).cleanup()) ==
      Seq("broadcast frame" -> "b", "broadcast view" -> "c"))
    // Without sizes nothing is broadcast.
    val unsizedTree = chainTree.copy(sizes = Map.empty)
    val unsizedPlan = repro.core.viewgen.ViewGeneration.plan(unsizedTree, atB, rootB)
    assert(passJoins(LmfaoExec.run(chainTables, unsizedPlan).cleanup()) ==
      Seq("sort-merge" -> "b", "sort-merge" -> "c"))
  }

  test("a keyed Σ batch at the fact table is one job per broadcast plus one, on a static plan") {
    // Rooted at S, the batch is one output group over the projections of D1
    // and D2, both broadcast into S's frame. Without adaptive execution the
    // pass's shuffle runs inside its own job, and only each broadcast starts
    // a job before it.
    val batch = SigmaBatch.queries(Features("x", Seq("u"), Seq("v")))
    val plan = ViewGeneration.plan(keyedStarTree, batch)
    assert(DependencyGraph.groups(plan).filter(_.outputs.nonEmpty).map(_.node) == Seq("S"))
    var jobs = Seq.empty[Option[Properties]]
    val Seq(executed) = Check.collectedPlans(spark) { jobs = jobsOf(LmfaoExec.run(keyedStarTables, plan).cleanup()) }
    assert(executed.find(_.isInstanceOf[AdaptiveSparkPlanExec]).isEmpty, executed)
    val broadcasts = executed.collect { case b: BroadcastExchangeExec => b }.size
    assert(broadcasts == 2, executed)
    assert(jobs.size == broadcasts + 1, executed)
    Check.lmfaoVsDuck(keyedStarTree, keyedStarTables, batch)
  }

  test("a multi-set output group over an emptied relation returns the global queries' rows with 0.0") {
    // No row of A joins: the grouped sets are empty, each global set is one
    // row. `atB` is one output group; `mixedRoots` is several, one per root.
    val emptied = chainTables.updated("A", chainTables("A").where(lit(false)))
    for ((batch, roots, outputGroups) <- Seq((atB, rootB, 1), (mixedRoots, Map.empty[String, String], 3))) {
      val res = LmfaoExec.run(emptied, ViewGeneration.plan(chainTree, batch, roots))
      try {
        assert(res.groups.count(_.outputs.nonEmpty) == outputGroups)
        batch.foreach { query =>
          val expected = if (query.groupBy.isEmpty) Seq(LocalRow(Nil, query.measures.map(_ => 0.0))) else Nil
          assert(AggQuery.collect(query, res.queryResults(query.name)) == expected, query.name)
        }
      } finally res.cleanup()
      Check.lmfaoVsDuck(chainTree, emptied, batch, roots)
    }
  }

  test("a batch split between the cube and sets of their own is one exploding job and matches DuckDB") {
    val tree = hinted(10, "b" -> 7L, "c" -> 5L)
    val pass = outputPass(tree, byBC, rootBC)
    assert(pass.folded == Seq(Nil, Seq("c")) && pass.hint == 5L)
    assert(pass.exploded == Seq(Seq("b"), Seq("b", "c")))
    assert(explodes(LmfaoExec.run(chainTables, ViewGeneration.plan(tree, byBC, rootBC)).cleanup()))
    Check.lmfaoVsDuck(tree, chainTables, byBC, rootBC)
  }

  test("an all-cube batch is one plain aggregate with no explode and matches DuckDB") {
    val tree = hinted(35, "b" -> 7L, "c" -> 5L)
    val pass = outputPass(tree, byBC, rootBC)
    assert(pass.folded.size == 4 && pass.exploded.isEmpty)
    assert(pass.sets.map(_.keys) == Seq(Seq("b", "c")) && pass.hint == 35L)
    // The cube's sums: 1, a, a·d and d², each once for the five queries.
    assert(pass.measures == 9 && pass.sums == 4)
    assert(!explodes(LmfaoExec.run(chainTables, ViewGeneration.plan(tree, byBC, rootBC)).cleanup()))
    Check.lmfaoVsDuck(tree, chainTables, byBC, rootBC)
  }

  test("a global set folded into a cube over an emptied relation reads as one row of 0.0") {
    val emptied = chainTables.updated("A", chainTables("A").where(lit(false)))
    for (tree <- Seq(hinted(10, "b" -> 7L, "c" -> 5L), hinted(35, "b" -> 7L, "c" -> 5L))) {
      assert(outputPass(tree, byBC, rootBC).folded.head == Nil)
      val res = LmfaoExec.run(emptied, ViewGeneration.plan(tree, byBC, rootBC))
      try byBC.foreach { query =>
        val expected = if (query.groupBy.isEmpty) Seq(LocalRow(Nil, Seq(0.0, 0.0))) else Nil
        assert(AggQuery.collect(query, res.queryResults(query.name)) == expected, query.name)
      } finally res.cleanup()
      Check.lmfaoVsDuck(tree, emptied, byBC, rootBC)
    }
  }

  test("a missing hint counts as the node's size and only keeps its sets out of the cube") {
    // c has no hint: it counts as |B| = 100, so (c) and (b,c) stay exploded.
    val tree = hinted(10, "b" -> 7L)
    val pass = outputPass(tree, byBC, rootBC)
    assert(pass.folded == Seq(Nil, Seq("b")) && pass.exploded == Seq(Seq("c"), Seq("b", "c")))
    Check.lmfaoVsDuck(tree, chainTables, byBC, rootBC)
  }

  test("an understated hint folds every set into a cube larger than its bound, with exact answers") {
    val tree = hinted(10, "b" -> 1L, "c" -> 1L)
    val pass = outputPass(tree, byBC, rootBC)
    assert(pass.exploded.isEmpty && pass.sets.map(_.keys) == Seq(Seq("b", "c")))
    val res = LmfaoExec.run(chainTables, ViewGeneration.plan(tree, byBC, rootBC))
    try assert(res.queryResults("byBC").count() > pass.bound) finally res.cleanup()
    Check.lmfaoVsDuck(tree, chainTables, byBC, rootBC)
  }

  test("AggQuery.collect reads an engine result from its rows, as collecting it through Spark does") {
    val batch = atB ++ mixedRoots
    val tree = hinted(10, "b" -> 7L, "c" -> 5L)
    val res = LmfaoExec.run(chainTables, ViewGeneration.plan(tree, batch, rootB))
    try batch.foreach { query =>
      val frame = res.queryResults(query.name)
      assert(frame.queryExecution.logical.isInstanceOf[LocalRelation], query.name)
      var local = Seq.empty[LocalRow]
      assert(jobsOf { local = AggQuery.collect(query, frame) }.isEmpty, query.name)
      // A filter over the rows is no longer a local relation: it is collected.
      val collected = AggQuery.collect(query, frame.where(lit(true)))
      assert(local.nonEmpty && local == collected, query.name)
    } finally res.cleanup()
  }

  test("AggQuery.collect rejects a NULL group-by value, naming the query and the attribute") {
    val schema = StructType(Seq(StructField("k", LongType), StructField("m", DoubleType)))
    val local = spark.createDataFrame(Seq(Row(null, 1.0), Row(2L, 3.0)).asJava, schema)
    val query = AggQuery("nullKey", Seq("k"), Seq(Measure.count("m")))
    for (frame <- Seq(local, local.where(lit(true)))) {
      val e = intercept[IllegalArgumentException](AggQuery.collect(query, frame))
      assert(e.getMessage.contains("query nullKey") && e.getMessage.contains("attribute k"), e.getMessage)
    }
  }

  test("explain gives one line per group in run order: producers, joins, views and the output pass") {
    val tree = hinted(10, "b" -> 7L, "c" -> 5L)
    val plan = ViewGeneration.plan(tree, byBC, rootBC)
    assert(LmfaoExec.explain(plan).split("\n").toSeq == Seq(
      "#0 A->B; V_A_to_B(b) aggregate of 2 sums",
      "#1 C->B; V_C_to_B(c) aggregate of 3 sums",
      "#2 B outputs after #0, #1; joins V_A_to_B(b) broadcast view, V_C_to_B(c) broadcast view; 5 queries: " +
        "cube (c) hint 5 <= 10 folds () (c); explodes (b) (b,c); sums 9 -> 6",
    ))
    val groups = DependencyGraph.groups(plan)
    assert(DependencyGraph.edges(groups).map { case (p, c) => (groups.indexOf(p), groups.indexOf(c)) }.toSet ==
      Set((0, 2), (1, 2)))
    // Rooted at D1, the snowflake's S->D1 aggregate inlines D2 and E2 into
    // S's frame, and D1's output group inlines E1 and reads that aggregate.
    val snowPlan = ViewGeneration.plan(snowTree, Seq(q("byW", Seq("w"), Seq(Measure.sum("s", "y")))), Map("byW" -> "D1"))
    assert(LmfaoExec.explain(snowPlan).split("\n").toSeq == Seq(
      "#0 E2->D2 inlined into #2; V_E2_to_D2(v) projection of 1 sums",
      "#1 D2->S inlined into #2; V_D2_to_S(k2) projection of 1 sums",
      "#2 S->D1; joins D2 for V_D2_to_S(k2) broadcast relation, E2 for V_E2_to_D2(v) broadcast relation; " +
        "V_S_to_D1(k1) aggregate of 1 sums",
      "#3 E1->D1 inlined into #4; V_E1_to_D1(u,w) projection of 1 sums",
      "#4 D1 outputs after #2; joins V_S_to_D1(k1) broadcast frame, E1 for V_E1_to_D1(u,w) broadcast relation; " +
        "1 queries: no cube; explodes (w); sums 1 -> 1",
    ))
  }

  test("keyed chains of depth 3 and snowflakes inline every level into one frame and match DuckDB") {
    val chainBatch = Seq(
      q("all", Nil, Seq(Measure.count("n"), Measure.sumProduct("p", "a", "e"))),
      q("byE", Seq("e"), Seq(Measure.sum("s", "a"))),
      q("byCD", Seq("c", "d"), Seq(Measure.sumSquare("s2", "e"), Measure.count("n"))),
      q("byB", Seq("b"), Seq(Measure.sumProduct("p", "c", "d")), Seq(Predicate("e", CmpOp.Le, 5))))
    val snowBatch = Seq(
      q("all", Nil, Seq(Measure.count("n"), Measure.sumProduct("p", "w", "y"))),
      q("byW", Seq("w"), Seq(Measure.sum("s", "x"))),
      q("byUV", Seq("u", "v"), Seq(Measure.sumProduct("p", "x", "y"))),
      q("byY", Seq("y"), Seq(Measure.count("n")), Seq(Predicate("w", CmpOp.Gt, 3))))
    // A second row for key value 3 of a relation in the middle of an arm.
    val (deepBroken, snowBroken) = (
      deepTables.updated("C", deepTables("C").union(spark.range(1).select(lit(3L).as("c"), lit(2L).as("d")))),
      snowTables.updated("D1", snowTables("D1").union(spark.range(1).select(lit(3L).as("k1"), lit(4L).as("u")))))
    for ((tree, tables, broken, batch) <- Seq(
        (deepTree, deepTables, deepBroken, chainBatch), (snowTree, snowTables, snowBroken, snowBatch))) {
      val fact = tree.relations.head.name
      withClue(s"$fact: ") {
        // Every edge has dangling tuples on both sides.
        tree.edges.foreach { case (l, r) =>
          for ((x, y) <- Seq((l, r), (r, l)))
            assert(tables(x).join(tables(y), tree.joinKeys(x, y), "left_anti").count() > 0, s"$x against $y")
        }
        Check.keysHold(tree, tables)
        assertThrows[IllegalArgumentException](Check.keysHold(tree, broken))
        // At the engine's roots, the batch is one output group at the fact
        // over projections only, every relation is inlined into its frame,
        // and no broadcast waits for another.
        val plan = ViewGeneration.plan(tree, batch)
        assert(plan.roots.values.toSet == Set(fact) && plan.views.forall(v => LmfaoExec.isProjection(tree, v.id)))
        val Seq(executed) = Check.collectedPlans(spark)(LmfaoExec.run(tables, plan).cleanup())
        assert(executed.collect { case b: BroadcastExchangeExec => b }.size == tree.relations.size - 1, executed)
        assert(Check.nestedBroadcasts(executed).isEmpty, executed)
        // Query i pinned to relation i + 1: dimension roots, aggregated views
        // from the fact, and chains inlined towards either end.
        val pinned = batch.zipWithIndex.map { case (query, i) =>
          query.name -> tree.relations((i + 1) % tree.relations.size).name }.toMap
        for {
          data <- Seq(tables, broken)
          sized <- Seq(tree, tree.copy(sizes = Map.empty))
          roots <- Seq(Map.empty[String, String], pinned)
        } Check.lmfaoVsDuck(sized, data, batch, roots)
      }
    }
  }

  test("answers do not depend on the join strategy") {
    val mixed = atB :+ q("d1", Seq("d"), Seq(Measure.sum("s", "a")))
    // Rooted at the smallest relation, every view from S joins into a
    // dimension's broadcast frame; at the fact root, every view is broadcast.
    val star = Seq(
      q("byU", Seq("u"), Seq(Measure.sum("s", "x"), Measure.count("n"))),
      q("byV", Seq("v"), Seq(Measure.sumProduct("p", "u", "x"))),
      q("all", Nil, Seq(Measure.sumProduct("p", "k1", "v"))))
    for {
      (tree, tables, batch, roots) <- Seq(
        (chainTree, chainTables, atB, rootB), (chainTree, chainTables, mixed, Map.empty[String, String]),
        (keyedChainTree, keyedChainTables, atB, rootB),
        (keyedChainTree, keyedChainTables, mixed, Map.empty[String, String]),
        (keyedStarTree, keyedStarTables, star, star.map(_.name -> "D2").toMap),
        (keyedStarTree, keyedStarTables, star, Map.empty[String, String]))
      sized <- Seq(tree, tree.copy(sizes = Map.empty))
    } Check.lmfaoVsDuck(sized, tables, batch, roots)
  }

  test("only aggregated views are cached; projection views stay uncached") {
    val sc = spark.sparkContext
    // Rooted at C, A→B(b) aggregates the unkeyed A; rooted at A, C→B(c) and
    // B→A(b) are projections of the keyed C and B.
    val batch = Seq(q("atA", Seq("a"), Seq(Measure.sum("s", "d"))), q("atC", Seq("d"), Seq(Measure.sum("s", "a"))))
    val roots = Map("atA" -> "A", "atC" -> "C")
    val before = sc.getPersistentRDDs.size
    val res = LmfaoExec.run(keyedChainTables, ViewGeneration.plan(keyedChainTree, batch, roots))
    try {
      val (projections, aggregated) = res.viewFrames.partition { case (id, _) =>
        LmfaoExec.isProjection(keyedChainTree, id) }
      assert(projections.nonEmpty && aggregated.nonEmpty, res.viewFrames.keys.map(_.label))
      assert(sc.getPersistentRDDs.size - before == aggregated.size)
      assert(projections.values.forall(_.storageLevel == StorageLevel.NONE))
      assert(aggregated.values.forall(_.storageLevel != StorageLevel.NONE))
      batch.foreach(query => Oracle.assertEquivalent(res.queryResults(query.name),
        SqlRender.querySql(keyedChainTree, query), keyedChainTables.toSeq: _*))
    } finally res.cleanup()
    assert(sc.getPersistentRDDs.size == before)
  }

  test("AggQuery.collect reads keys as Long and a NULL global sum as 0.0") {
    val batch = Seq(
      q("grouped", Seq("a", "b"), Seq(Measure.count("c"), Measure.sum("s", "d"))),
      q("empty", Nil, Seq(Measure.count("c"))))
    val plan = repro.core.viewgen.ViewGeneration.plan(chainTree, batch.take(1))
    val res = LmfaoExec.run(chainTables, plan)
    val rows = AggQuery.collect(batch.head, res.queryResults("grouped"))
    val expected = res.queryResults("grouped").collect().map { r =>
      LocalRow(Seq(r.getLong(0), r.getLong(1)), Seq(r.getDouble(2), r.getDouble(3)))
    }
    assert(rows.nonEmpty && rows == expected.toSeq)
    res.cleanup()
    val emptyPlan = repro.core.viewgen.ViewGeneration.plan(chainTree, batch.drop(1))
    // No row of A joins: the global SUM over an empty D is NULL.
    val emptyRes = LmfaoExec.run(chainTables.updated("A", chainTables("A").where(lit(false))), emptyPlan)
    assert(AggQuery.collect(batch(1), emptyRes.queryResults("empty")) == Seq(LocalRow(Nil, Seq(0.0))))
    emptyRes.cleanup()
  }

  test("mixed-root batches under a path condition on each chain attribute match DuckDB") {
    for (attr <- Seq("a", "b", "c", "d")) withClue(s"condition on $attr: ") {
      // A CART path condition: one indicator factor, applied at the owner only.
      Check.lmfaoVsDuck(chainTree, chainTables, mixedRoots.map(TestData.where(_, Predicate(attr, CmpOp.Ne, 3))))
    }
  }

  test("conditions on one attribute with different thresholds never share an aggregate") {
    // Two CART nodes per batch, as one tree level runs them. Both conditions
    // sit at d's owner C, below the root A, so both travel in the merged
    // views towards A; the indicator tags differ in op or value, so signature
    // dedup keeps them apart.
    for ((l, r) <- Seq(
        (Predicate("d", CmpOp.Le, 3), Predicate("d", CmpOp.Gt, 3)),
        (Predicate("d", CmpOp.Le, 3), Predicate("d", CmpOp.Le, 5)))) withClue(s"${l.sql} vs ${r.sql}: ") {
      val batch = Seq(l, r).zipWithIndex.flatMap { case (p, i) =>
        Seq(q(s"n${i}_byA", Seq("a"), Seq(Measure.count("c"), Measure.sum("s", "b")), Seq(p)),
          q(s"n${i}_all", Nil, Seq(Measure.count("c")), Seq(p)))
      }
      val plan = ViewGeneration.plan(chainTree, batch)
      assert(plan.views.exists(v => Seq(l, r).forall(p => v.aggs.exists(_.sig.contains(p.indicator.tag)))))
      Check.lmfaoVsDuck(chainTree, chainTables, batch)
    }
  }

  test("a failing pass rethrows its error and unpersists the run's frames") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.size
    // Only the pass rooted at A reads `a`; the pass rooted at C reads A only
    // through the cached view A→B(b), whose plan does not compute `a`.
    val batch = Seq(q("byA", Seq("a"), Seq(Measure.count("n"))), q("byD", Seq("d"), Seq(Measure.count("n"))))
    val plan = ViewGeneration.plan(chainTree, batch, Map("byA" -> "A", "byD" -> "C"))
    assert(Check.outputPasses(plan) == 2)
    // A is repartitioned so that the optimizer cannot evaluate `a` at plan
    // time, as it does over a local relation.
    val a = chainTables("A").repartition(2)
    val failing = chainTables
      .updated("A", a.withColumn("a", when(col("a") > 0, raise_error(lit("poisoned a"))).otherwise(col("a"))))
    val e = intercept[Exception](LmfaoExec.run(failing, plan))
    assert(e.getMessage.contains("poisoned a"))
    assert(sc.getPersistentRDDs.size == before)
    Check.lmfaoVsDuck(chainTree, chainTables, batch, Map("byA" -> "A", "byD" -> "C"))
  }

  test("the caller's local properties and job group reach every job of a multi-pass run") {
    val sc = spark.sparkContext
    val Key = "repro.test.span"
    val plan = ViewGeneration.plan(chainTree, mixedRoots)
    assert(Check.outputPasses(plan) > 1)
    val run = jobsOf {
      sc.setJobGroup("lmfao-run", "multi-pass run")
      sc.setLocalProperty(Key, "run")
      try LmfaoExec.run(chainTables, plan).cleanup()
      finally { sc.clearJobGroup(); sc.setLocalProperty(Key, null) }
    }.map(_.map(p => s"${p.getProperty(Key)}/${p.getProperty("spark.jobGroup.id")}"))
    assert(run.size > 1)
    assert(run.forall(_.contains("run/lmfao-run")), run)
  }
}
