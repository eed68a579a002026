package repro

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.exchange.BroadcastExchangeExec
import org.apache.spark.sql.util.QueryExecutionListener
import org.apache.spark.sql.functions.lit

import repro.core.exec.LmfaoExec
import repro.core.query.{AggQuery, Predicate, SqlRender}
import repro.core.schema.{JoinTree, Relation}
import repro.core.viewgen.{OutputPass, Plan, ViewGeneration}

/** Micro schemas for oracle tests: small enough that every DuckDB round-trip
  * is fast, with duplicate keys and dangling tuples so natural-join
  * multiplicity and inner-join semantics are actually exercised; the keyed
  * variants declare keys that hold.
  */
object TestData {

  /** Chain A(a,b) — B(b,c) — C(c,d). B and C contain duplicate join keys. */
  def chain(spark: SparkSession, n: Int = 60, seed: Int = 1): (JoinTree, Map[String, DataFrame]) = {
    import spark.implicits._
    val rng = new scala.util.Random(seed)
    val aRows = Seq.fill(n)((rng.nextInt(9) + 1L, rng.nextInt(6) + 1L))        // (a, b)
    val bRows = Seq.fill(n / 2)((rng.nextInt(7) + 1L, rng.nextInt(5) + 1L))    // (b, c) with dups
    val cRows = Seq.fill(n / 3)((rng.nextInt(6) + 1L, rng.nextInt(9) + 1L))    // (c, d) with dups
    val tree = JoinTree(
      Seq(Relation("A", Seq("a", "b")), Relation("B", Seq("b", "c")), Relation("C", Seq("c", "d"))),
      Seq(("A", "B"), ("B", "C")),
      sizes = Map("A" -> n.toLong, "B" -> (n / 2).toLong, "C" -> (n / 3).toLong),
    )
    val tables = Map(
      "A" -> aRows.toDF("a", "b"),
      "B" -> bRows.toDF("b", "c"),
      "C" -> cRows.toDF("c", "d"),
    )
    (tree, tables)
  }

  /** Star S(k1,k2,x) — D1(k1,u), D2(k2,v); both dimensions have duplicate keys. */
  def star(spark: SparkSession, n: Int = 80, seed: Int = 2): (JoinTree, Map[String, DataFrame]) = {
    import spark.implicits._
    val rng = new scala.util.Random(seed)
    val sRows = Seq.fill(n)((rng.nextInt(5) + 1L, rng.nextInt(4) + 1L, rng.nextInt(20) + 1L))
    val d1Rows = Seq.fill(8)((rng.nextInt(6) + 1L, rng.nextInt(10) + 1L))
    val d2Rows = Seq.fill(6)((rng.nextInt(5) + 1L, rng.nextInt(10) + 1L))
    val tree = JoinTree(
      Seq(
        Relation("S", Seq("k1", "k2", "x")),
        Relation("D1", Seq("k1", "u")),
        Relation("D2", Seq("k2", "v")),
      ),
      Seq(("S", "D1"), ("S", "D2")),
      sizes = Map("S" -> n.toLong, "D1" -> 8L, "D2" -> 6L),
    )
    val tables = Map(
      "S" -> sRows.toDF("k1", "k2", "x"),
      "D1" -> d1Rows.toDF("k1", "u"),
      "D2" -> d2Rows.toDF("k2", "v"),
    )
    (tree, tables)
  }

  /** Keyed chain A(a,b) — B(b,c) key b — C(c,d) key c. The keys hold, A has
    * duplicate join keys, and every edge has dangling tuples: b ∈ {7, 8} in A
    * and c = 1 in B find no partner, nor does c = 7 in C.
    */
  def keyedChain(spark: SparkSession, n: Int = 60, seed: Int = 11): (JoinTree, Map[String, DataFrame]) = {
    import spark.implicits._
    val rng = new scala.util.Random(seed)
    val aRows = Seq.fill(n)((rng.nextInt(9) + 1L, rng.nextInt(8) + 1L))      // (a, b), b in 1..8
    val bRows = (1L to 6L).map(b => (b, rng.nextInt(6) + 1L))                 // (b, c), c in 1..6
    val cRows = (2L to 7L).map(c => (c, rng.nextInt(9) + 1L))                 // (c, d)
    val tree = JoinTree(
      Seq(
        Relation("A", Seq("a", "b")),
        Relation("B", Seq("b", "c"), key = Seq("b")),
        Relation("C", Seq("c", "d"), key = Seq("c")),
      ),
      Seq(("A", "B"), ("B", "C")),
      sizes = Map("A" -> n.toLong, "B" -> 6L, "C" -> 6L),
    )
    (tree, Map("A" -> aRows.toDF("a", "b"), "B" -> bRows.toDF("b", "c"), "C" -> cRows.toDF("c", "d")))
  }

  /** Keyed star S(k1,k2,x) — D1(k1,u) key k1, D2(k2,v) key k2. The keys
    * hold; k1 = 6 and k2 = 5 in S and k1 = 7, k2 = 6 in the dimensions
    * dangle.
    */
  def keyedStar(spark: SparkSession, n: Int = 80, seed: Int = 12): (JoinTree, Map[String, DataFrame]) = {
    import spark.implicits._
    val rng = new scala.util.Random(seed)
    val sRows = Seq.fill(n)((rng.nextInt(6) + 1L, rng.nextInt(5) + 1L, rng.nextInt(20) + 1L))
    val d1Rows = Seq(1L, 2L, 3L, 4L, 5L, 7L).map(k => (k, rng.nextInt(4) + 1L))
    val d2Rows = Seq(1L, 2L, 3L, 4L, 6L).map(k => (k, rng.nextInt(10) + 1L))
    val tree = JoinTree(
      Seq(
        Relation("S", Seq("k1", "k2", "x")),
        Relation("D1", Seq("k1", "u"), key = Seq("k1")),
        Relation("D2", Seq("k2", "v"), key = Seq("k2")),
      ),
      Seq(("S", "D1"), ("S", "D2")),
      sizes = Map("S" -> n.toLong, "D1" -> 6L, "D2" -> 5L),
    )
    (tree, Map("S" -> sRows.toDF("k1", "k2", "x"), "D1" -> d1Rows.toDF("k1", "u"), "D2" -> d2Rows.toDF("k2", "v")))
  }

  /** Keyed chain of depth 3 into the fact F: F(a,b) — B(b,c) key b —
    * C(c,d) key c — E(d,e) key d. The keys hold, and every edge has dangling
    * tuples on both sides: b ∈ {7, 8} in F and b = 9 in B, c = 1 in B and
    * c = 8 in C, d = 1 in C and d = 7 in E find no partner.
    */
  def deepChain(spark: SparkSession, n: Int = 60, seed: Int = 21): (JoinTree, Map[String, DataFrame]) = {
    import spark.implicits._
    val rng = new scala.util.Random(seed)
    val fRows = Seq.fill(n)((rng.nextInt(9) + 1L, rng.nextInt(8) + 1L))          // (a, b), b in 1..8
    val bRows = ((1L to 6L) :+ 9L).map(b => (b, if (b == 1) 1L else rng.nextInt(7) + 1L)) // (b, c), c in 1..7
    val cRows = (2L to 8L).map(c => (c, if (c == 2) 1L else rng.nextInt(6) + 1L))      // (c, d), d in 1..6
    val eRows = (2L to 7L).map(d => (d, rng.nextInt(9) + 1L))                   // (d, e)
    val tree = JoinTree(
      Seq(
        Relation("F", Seq("a", "b")),
        Relation("B", Seq("b", "c"), key = Seq("b")),
        Relation("C", Seq("c", "d"), key = Seq("c")),
        Relation("E", Seq("d", "e"), key = Seq("d")),
      ),
      Seq(("F", "B"), ("B", "C"), ("C", "E")),
      sizes = Map("F" -> n.toLong, "B" -> 7L, "C" -> 7L, "E" -> 6L),
    )
    (tree, Map("F" -> fRows.toDF("a", "b"), "B" -> bRows.toDF("b", "c"), "C" -> cRows.toDF("c", "d"),
      "E" -> eRows.toDF("d", "e")))
  }

  /** Snowflake with two keyed levels on each arm: S(k1,k2,x) — D1(k1,u)
    * key k1 — E1(u,w) key u, and S — D2(k2,v) key k2 — E2(v,y) key v. The
    * keys hold, and every edge has dangling tuples on both sides: k1 = 6 in
    * S and 7 in D1, u = 1 in D1 and 6 in E1, k2 = 5 in S and 6 in D2, v = 4
    * in D2 and 5 in E2.
    */
  def snowflake(spark: SparkSession, n: Int = 80, seed: Int = 22): (JoinTree, Map[String, DataFrame]) = {
    import spark.implicits._
    val rng = new scala.util.Random(seed)
    val sRows = Seq.fill(n)((rng.nextInt(6) + 1L, rng.nextInt(5) + 1L, rng.nextInt(20) + 1L))
    val d1Rows = Seq(1L, 2L, 3L, 4L, 5L, 7L).map(k => (k, if (k == 1) 1L else rng.nextInt(5) + 1L)) // u in 1..5
    val e1Rows = (2L to 6L).map(u => (u, rng.nextInt(9) + 1L))
    val d2Rows = Seq(1L, 2L, 3L, 4L, 6L).map(k => (k, if (k == 1) 4L else rng.nextInt(4) + 1L)) // v in 1..4
    val e2Rows = Seq(1L, 2L, 3L, 5L).map(v => (v, rng.nextInt(9) + 1L))
    val tree = JoinTree(
      Seq(
        Relation("S", Seq("k1", "k2", "x")),
        Relation("D1", Seq("k1", "u"), key = Seq("k1")),
        Relation("E1", Seq("u", "w"), key = Seq("u")),
        Relation("D2", Seq("k2", "v"), key = Seq("k2")),
        Relation("E2", Seq("v", "y"), key = Seq("v")),
      ),
      Seq(("S", "D1"), ("D1", "E1"), ("S", "D2"), ("D2", "E2")),
      sizes = Map("S" -> n.toLong, "D1" -> 6L, "E1" -> 5L, "D2" -> 5L, "E2" -> 4L),
    )
    (tree, Map("S" -> sRows.toDF("k1", "k2", "x"), "D1" -> d1Rows.toDF("k1", "u"), "E1" -> e1Rows.toDF("u", "w"),
      "D2" -> d2Rows.toDF("k2", "v"), "E2" -> e2Rows.toDF("v", "y")))
  }

  /** A single-relation "tree" R(g, x, y). */
  def single(spark: SparkSession, n: Int = 50, seed: Int = 3): (JoinTree, Map[String, DataFrame]) = {
    import spark.implicits._
    val rng = new scala.util.Random(seed)
    val rows = Seq.fill(n)((rng.nextInt(4) + 1L, rng.nextInt(10) + 1L, rng.nextInt(15) + 1L))
    val tree = JoinTree(Seq(Relation("R", Seq("g", "x", "y"))), Nil)
    (tree, Map("R" -> rows.toDF("g", "x", "y")))
  }

  /** `q` over the rows of D that satisfy every condition: each measure times
    * the conditions' indicator factors, as CART's node batches build them.
    */
  def where(q: AggQuery, conds: Predicate*): AggQuery =
    q.copy(measures = q.measures.map(m => m.copy(factors = m.factors ++ conds.map(_.indicator))))

  /** Micro Favorita (~6k sales rows) for end-to-end oracle tests. */
  def favoritaMicro(spark: SparkSession): (JoinTree, Map[String, DataFrame]) =
    (repro.data.Favorita.tree(0.001), repro.data.Favorita.tables(spark, 0.001))

  /** Micro Retailer (~4.2k inventory rows). */
  def retailerMicro(spark: SparkSession): (JoinTree, Map[String, DataFrame]) =
    (repro.data.Retailer.tree(0.001), repro.data.Retailer.tables(spark, 0.001))
}

/** Oracle harness: run a batch through the LMFAO engine and check every query
  * result against DuckDB over the base relations.
  */
object Check {
  /** Output grouping sets of a plan: the sets of each output group's pass
    * (each output group is one job over its frame).
    */
  def outputPasses(plan: Plan): Int = plan.outputGroups.map(OutputPass(plan.tree, _).sets.size).sum

  /** Each view of `plan` listed before a view it reads, as text: none when
    * the plan lists every view after its inputs.
    */
  def viewsBeforeInputs(plan: Plan): Seq[String] = {
    val at = plan.views.map(_.id).zipWithIndex.toMap
    for {
      (v, i) <- plan.views.zipWithIndex
      dep <- v.incoming if !at.get(dep).exists(_ < i)
    } yield s"${v.id.label} before its input ${dep.label}"
  }

  /** DuckDB confirms every declared key of the tree: no two rows of the
    * relation agree on all of its key attributes.
    */
  def keysHold(tree: JoinTree, tables: Map[String, DataFrame]): Unit =
    tree.relations.filter(_.key.nonEmpty).foreach { r =>
      val holds = tables(r.name).sparkSession.range(1).select(lit(true).as("key_holds"))
      Oracle.assertEquivalent(holds,
        s"SELECT COUNT(*) = COUNT(DISTINCT concat_ws('|', ${r.key.mkString(", ")})) AS key_holds FROM ${r.name}",
        r.name -> tables(r.name))
    }

  /** The executed plans of the frames that `body` collects, in order.
    * Listeners are called on the listener bus, after the action returns and
    * in the order of the actions; so once a marker action that the engine
    * never runs (`collectAsList`) has been reported, every collect of `body`
    * has been.
    */
  def collectedPlans(spark: SparkSession)(body: => Unit): Seq[SparkPlan] = {
    val plans = new ConcurrentLinkedQueue[SparkPlan]()
    val flushed = new CountDownLatch(1)
    val listener = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        if (funcName == "collect") plans.add(qe.executedPlan) else if (funcName == "collectAsList") flushed.countDown()
      override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try {
      body
      spark.range(1).collectAsList()
      assert(flushed.await(30, TimeUnit.SECONDS), "the marker action was never reported")
      plans.asScala.toSeq
    } finally spark.listenerManager.unregister(listener)
  }

  /** The broadcasts of a physical plan that sit inside another broadcast's
    * input: Spark must finish each before it can start the one above it.
    */
  def nestedBroadcasts(plan: SparkPlan): Seq[SparkPlan] =
    plan.collect { case b: BroadcastExchangeExec => b }.flatMap(_.child.collect { case b: BroadcastExchangeExec => b })

  def lmfaoVsDuck(tree: JoinTree, tables: Map[String, DataFrame], queries: Seq[AggQuery],
                  roots: Map[String, String] = Map.empty): Unit = {
    val res = LmfaoExec.run(tables, ViewGeneration.plan(tree, queries, roots))
    try queries.foreach { q =>
      Oracle.assertEquivalent(res.queryResults(q.name), SqlRender.querySql(tree, q), tables.toSeq: _*)
    } finally res.cleanup()
  }
}
