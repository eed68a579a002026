package repro.core.exec

import org.apache.spark.sql.functions.col
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.{Check, Oracle, SparkSpec, TestData}
import repro.core.query._
import repro.core.schema.JoinTree
import repro.core.viewgen.{OutputPass, RootAssignment, ViewGeneration}

/** Property-based oracle testing: random group-by aggregate queries with
  * random roots over the chain and star schemas, with and without declared
  * keys, every result diffed against DuckDB. (ScalaCheck generators driven manually with fixed seeds — the
  * scalatest/scalacheck bridge artifact is not available offline.)
  */
class PropertyOracleSpec extends SparkSpec {

  private lazy val (chainTree, chainTables) = TestData.chain(spark)
  private lazy val (starTree, starTables) = TestData.star(spark)
  private lazy val (keyedChainTree, keyedChainTables) = TestData.keyedChain(spark)
  private lazy val (keyedStarTree, keyedStarTables) = TestData.keyedStar(spark)
  private lazy val deepTree = TestData.deepChain(spark)._1
  private lazy val snowTree = TestData.snowflake(spark)._1

  private def rows(df: org.apache.spark.sql.DataFrame): Seq[String] = df.collect().map(_.toString).sorted.toSeq

  private val Cases = 12

  private def sample[A](gen: Gen[A], seed: Long): A =
    gen.pureApply(Gen.Parameters.default, Seed(seed))

  private val fnGen: Gen[ScalarFn] =
    Gen.oneOf(ScalarFn.Identity, ScalarFn.Square, ScalarFn.G, ScalarFn.H)

  private def measureGen(attrs: Seq[String], idx: Int): Gen[Measure] =
    for {
      nf <- Gen.choose(0, 3)
      factors <- Gen.listOfN(nf, for { a <- Gen.oneOf(attrs); f <- fnGen } yield Factor(a, f))
    } yield Measure(s"m$idx", factors)

  private def queryGen(attrs: Seq[String], roots: Seq[String]): Gen[(AggQuery, String)] =
    for {
      nGb <- Gen.choose(0, 2)
      gb <- Gen.pick(nGb, attrs)
      nM <- Gen.choose(1, 2)
      measures <- Gen.sequence[Seq[Measure], Measure]((0 until nM).map(i => measureGen(attrs, i)))
      root <- Gen.oneOf(roots)
    } yield (AggQuery("q", gb.toSeq.sorted, measures), root)

  test("random queries over the chain match DuckDB at every root") {
    val gen = queryGen(Seq("a", "b", "c", "d"), Seq("A", "B", "C"))
    (1 to Cases).foreach { i =>
      val (query, root) = sample(gen, 1000 + i)
      withClue(s"seed=${1000 + i} query=$query root=$root") {
        Check.lmfaoVsDuck(chainTree, chainTables, Seq(query), Map("q" -> root))
      }
    }
  }

  test("random queries over the star match DuckDB at every root") {
    val gen = queryGen(Seq("k1", "k2", "x", "u", "v"), Seq("S", "D1", "D2"))
    (1 to Cases).foreach { i =>
      val (query, root) = sample(gen, 2000 + i)
      withClue(s"seed=${2000 + i} query=$query root=$root") {
        Check.lmfaoVsDuck(starTree, starTables, Seq(query), Map("q" -> root))
      }
    }
  }

  test("random filtered queries over the chain match DuckDB") {
    val attrs = Seq("a", "b", "c", "d")
    val gen = for {
      (query, root) <- queryGen(attrs, Seq("A", "B", "C"))
      a <- Gen.oneOf(attrs)
      op <- Gen.oneOf(CmpOp.Le, CmpOp.Ge, CmpOp.Eq, CmpOp.Ne, CmpOp.Lt, CmpOp.Gt)
      v <- Gen.choose(1L, 8L)
    } yield (TestData.where(query, Predicate(a, op, v)), root)
    (1 to Cases).foreach { i =>
      val (query, root) = sample(gen, 3000 + i)
      withClue(s"seed=${3000 + i} query=$query root=$root") {
        Check.lmfaoVsDuck(chainTree, chainTables, Seq(query), Map("q" -> root))
      }
    }
  }

  test("random two-query batches share views and still match DuckDB") {
    val gen = for {
      (q1, r1) <- queryGen(Seq("a", "b", "c", "d"), Seq("A", "B", "C"))
      (q2, r2) <- queryGen(Seq("a", "b", "c", "d"), Seq("A", "B", "C"))
    } yield (q1.copy(name = "q1"), r1, q2.copy(name = "q2"), r2)
    (1 to Cases).foreach { i =>
      val (q1, r1, q2, r2) = sample(gen, 4000 + i)
      withClue(s"seed=${4000 + i} q1=$q1 q2=$q2") {
        Check.lmfaoVsDuck(chainTree, chainTables, Seq(q1, q2), Map("q1" -> r1, "q2" -> r2))
      }
    }
  }

  /** Batches of 3–6 queries; query i groups on attributes of relation
    * i + offset, so every relation carries some group-by, and about half of
    * the queries are rooted there by an override.
    */
  private def batchGen(tree: JoinTree): Gen[Seq[(AggQuery, Option[String])]] = {
    val rels = tree.relations.map(r => r.name -> r.attrs)
    val attrs = rels.flatMap(_._2).distinct
    for {
      n <- Gen.choose(3, 6)
      offset <- Gen.choose(0, rels.size - 1)
      queries <- Gen.sequence[Seq[(AggQuery, Option[String])], (AggQuery, Option[String])](
        (0 until n).map { i =>
          val (rel, relAttrs) = rels((i + offset) % rels.size)
          for {
            nGb <- Gen.choose(1, 2)
            gb <- Gen.pick(nGb, relAttrs)
            nM <- Gen.choose(1, 2)
            measures <- Gen.sequence[Seq[Measure], Measure]((0 until nM).map(j => measureGen(attrs, j)))
            root <- Gen.option(Gen.const(rel))
          } yield (AggQuery(s"q$i", gb.toSeq.sorted, measures), root)
        })
    } yield queries
  }

  test("random batches grouped on different relations run several passes and match DuckDB") {
    for ((tree, tables, seed0) <- Seq((chainTree, chainTables, 6000), (starTree, starTables, 7000))) {
      val gen = batchGen(tree)
      (1 to Cases / 2).foreach { i =>
        val batch = sample(gen, seed0 + i)
        val queries = batch.map(_._1)
        val roots = batch.collect { case (q, Some(r)) => q.name -> r }.toMap
        withClue(s"seed=${seed0 + i} batch=$batch") {
          val plan = ViewGeneration.plan(tree, queries, roots)
          assert(Check.outputPasses(plan) >= 2)
          Check.lmfaoVsDuck(tree, tables, queries, roots)
        }
      }
    }
  }

  test("random batches over every test tree list each view after the views it reads") {
    val reading = for {
      (tree, seed0) <- Seq(chainTree -> 6000, starTree -> 7000, keyedChainTree -> 8000, keyedStarTree -> 9000,
        deepTree -> 18000, snowTree -> 19000)
      i <- 1 to Cases / 2
      batch = sample(batchGen(tree), seed0 + i)
      roots <- Seq(batch.collect { case (q, Some(r)) => q.name -> r }.toMap, Map.empty[String, String])
    } yield {
      val plan = ViewGeneration.plan(tree, batch.map(_._1), roots)
      assert(Check.viewsBeforeInputs(plan).isEmpty, s"seed=${seed0 + i} batch=$batch roots=$roots")
      plan.views.count(_.incoming.nonEmpty)
    }
    // Vacuous unless views read other views.
    assert(reading.sum > 0)
  }

  test("random batches over keyed trees match DuckDB, with projection views and fact roots") {
    val seen = for {
      (tree, tables, seed0) <- Seq((keyedChainTree, keyedChainTables, 8000), (keyedStarTree, keyedStarTables, 9000))
      i <- 1 to Cases / 2
    } yield {
      val batch = sample(batchGen(tree), seed0 + i)
      val queries = batch.map(_._1)
      val roots = batch.collect { case (q, Some(r)) => q.name -> r }.toMap
      withClue(s"seed=${seed0 + i} batch=$batch") {
        val plan = ViewGeneration.plan(tree, queries, roots)
        Check.lmfaoVsDuck(tree, tables, queries, roots)
        val projections = plan.views.count(v => LmfaoExec.isProjection(tree, v.id))
        val moved = queries.count(q => plan.roots(q.name) != roots.getOrElse(q.name, RootAssignment.choose(tree, q)))
        (projections, moved)
      }
    }
    // Vacuous unless both key-driven paths actually ran.
    assert(seen.map(_._1).sum > 0 && seen.map(_._2).sum > 0, seen)
  }

  test("answers over keyed trees are identical when every query is pinned to its choose root") {
    val differ = for {
      (tree, tables, seed0) <- Seq((keyedChainTree, keyedChainTables, 10000), (keyedStarTree, keyedStarTables, 11000))
      i <- 1 to Cases / 2
    } yield {
      val queries = sample(batchGen(tree), seed0 + i).map(_._1)
      val chosen = queries.map(q => q.name -> RootAssignment.choose(tree, q)).toMap
      withClue(s"seed=${seed0 + i} queries=$queries") {
        val engine = LmfaoExec.run(tables, ViewGeneration.plan(tree, queries))
        val pinned = LmfaoExec.run(tables, ViewGeneration.plan(tree, queries, chosen))
        try queries.foreach(q => assert(rows(engine.queryResults(q.name)) == rows(pinned.queryResults(q.name)), q.name))
        finally { engine.cleanup(); pinned.cleanup() }
        engine.plan.roots != chosen
      }
    }
    // Vacuous unless the engine's roots differ from choose's in some batch.
    assert(differ.contains(true))
  }

  test("random batches over trees whose declared keys the data violates still match DuckDB") {
    // The keyed trees over the plain chain's and star's rows, which repeat
    // the join keys that B, C, D1 and D2 declare as their keys.
    val split = for {
      (tree, tables, seed0) <- Seq((keyedChainTree, chainTables, 12000), (keyedStarTree, starTables, 13000))
      i <- 1 to Cases / 2
    } yield {
      val batch = sample(batchGen(tree), seed0 + i)
      val queries = batch.map(_._1)
      val roots = batch.collect { case (q, Some(r)) => q.name -> r }.toMap
      withClue(s"seed=${seed0 + i} batch=$batch") {
        val res = LmfaoExec.run(tables, ViewGeneration.plan(tree, queries, roots))
        try {
          queries.foreach(q =>
            Oracle.assertEquivalent(res.queryResults(q.name), SqlRender.querySql(tree, q), tables.toSeq: _*))
          // A projection over a broken key keeps several rows of one group.
          res.plan.views.exists { v =>
            val f = res.viewFrames(v.id)
            LmfaoExec.isProjection(tree, v.id) && f.count() > f.select(v.id.keys.map(col): _*).distinct().count()
          }
        } finally res.cleanup()
      }
    }
    // Vacuous unless some projection view actually held split rows.
    assert(split.contains(true))
  }

  test("answers are identical under any domain hints: missing, understated, mixed or overstated") {
    val folds = for {
      (tree0, tables, seed0) <- Seq((chainTree, chainTables, 14000), (starTree, starTables, 15000),
        (keyedChainTree, keyedChainTables, 16000), (keyedStarTree, keyedStarTables, 17000))
      i <- 1 to Cases / 4
    } yield {
      // Sizes 10 times the relations' rows, so that a cube's bound is the
      // number of rows: the hints then decide what folds.
      val tree = tree0.copy(sizes = tree0.sizes.map { case (r, n) => r -> n * 10 })
      val batch = sample(batchGen(tree), seed0 + i)
      val queries = batch.map(_._1)
      val roots = batch.collect { case (q, Some(r)) => q.name -> r }.toMap
      val hints = Seq(1L, 10L, 1000000L).map(h => tree.allAttrs.map(_ -> h).toMap)
      withClue(s"seed=${seed0 + i} batch=$batch") {
        val runs = (Map.empty[String, Long] +: hints).map { domains =>
          val hinted = tree.copy(domains = domains)
          val plan = ViewGeneration.plan(hinted, queries, roots)
          val res = LmfaoExec.run(tables, plan)
          try (plan.outputGroups.map(OutputPass(hinted, _).folded.size), queries.map(q => rows(res.queryResults(q.name))))
          finally res.cleanup()
        }
        runs.foreach { case (_, answers) => assert(answers == runs.head._2) }
        // Every hint 1 folds every set of every output group.
        Check.lmfaoVsDuck(tree.copy(domains = hints.head), tables, queries, roots)
        runs.map(_._1).distinct.size
      }
    }
    // Vacuous unless the hints changed some fold decision.
    assert(folds.exists(_ > 1), folds)
  }

  test("the key check rejects a key that the data violates") {
    // B(b, c) of the plain chain repeats join keys b.
    val keyed = chainTree.copy(relations = chainTree.relations.map(r =>
      if (r.name == "B") r.copy(key = Seq("b")) else r))
    assertThrows[IllegalArgumentException](Check.keysHold(keyed, chainTables))
    Check.keysHold(keyedChainTree, keyedChainTables)
    Check.keysHold(keyedStarTree, keyedStarTables)
  }
}
