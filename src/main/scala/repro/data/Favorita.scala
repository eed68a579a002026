package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core.query.{AggQuery, Factor, Measure, ScalarFn}
import repro.core.schema.{JoinTree, Relation}

/** Synthetic stand-in for the public Favorita dataset (120M tuples; Kaggle).
  *
  * Same six-relation schema and join tree as the paper (Fig. 2): Sales is the
  * fact table; Transactions links Sales to Stores; Items, Oil and Holidays
  * hang off Sales. All attributes are integer-valued Longs so aggregate sums
  * are exact in double arithmetic (see DESIGN.md). Sizes scale with `sf`
  * (SF=1 ≈ 6M sales rows). Every dimension relation declares its key; the
  * generator builds each key from `range` ids, so the keys hold. The tree's
  * domain hints are the generators' value ranges.
  */
object Favorita {
  val sales: Relation        = Relation("Sales", Seq("date", "store", "item", "units", "promo"))
  val transactions: Relation = Relation("Transactions", Seq("date", "store", "txns"), key = Seq("date", "store"))
  val stores: Relation       = Relation("Stores", Seq("store", "city", "state", "cluster"), key = Seq("store"))
  val items: Relation        = Relation("Items", Seq("item", "family", "iclass", "perishable"), key = Seq("item"))
  val oil: Relation          = Relation("Oil", Seq("date", "oilprize"), key = Seq("date"))
  val holidays: Relation     = Relation("Holidays", Seq("date", "htype", "transferred"), key = Seq("date"))

  val relations: Seq[Relation] = Seq(sales, transactions, stores, items, oil, holidays)

  val edges: Seq[(String, String)] = Seq(
    ("Sales", "Transactions"),
    ("Transactions", "Stores"),
    ("Sales", "Items"),
    ("Sales", "Oil"),
    ("Sales", "Holidays"),
  )

  val nDates  = 366L
  val nStores = 54L

  def nItems(sf: Double): Long = math.max(20L, (40000 * sf).toLong)
  def nSales(sf: Double): Long = math.max(100L, (6_000_000L * sf).toLong)

  def tree(sf: Double): JoinTree = JoinTree(
    relations,
    edges,
    sizes = Map(
      "Sales" -> nSales(sf),
      "Transactions" -> nDates * nStores,
      "Stores" -> nStores,
      "Items" -> nItems(sf),
      "Oil" -> nDates,
      "Holidays" -> nDates,
    ),
    // The number of values each generator below can draw.
    domains = Map(
      "date" -> nDates, "store" -> nStores, "item" -> nItems(sf), "units" -> 50L, "promo" -> 2L,
      "txns" -> 2000L, "city" -> 22L, "state" -> 16L, "cluster" -> 17L, "family" -> 33L, "iclass" -> 337L,
      "perishable" -> 2L, "oilprize" -> 80L, "htype" -> 6L, "transferred" -> 2L,
    ),
  )

  /** All six relations at scale factor `sf`, deterministic in (sf, seed). */
  def tables(spark: SparkSession, sf: Double, seed: Long = 0): Map[String, DataFrame] = {
    val id = col("id")
    val salesDf = spark.range(nSales(sf)).select(
      Gen.hIn(id, seed + 1, 1, nDates) as "date",
      Gen.hIn(id, seed + 2, 1, nStores) as "store",
      Gen.hIn(id, seed + 3, 1, nItems(sf)) as "item",
      Gen.hIn(id, seed + 4, 1, 50) as "units",
      Gen.h(id, seed + 5, 2) as "promo",
    )
    val txDf = spark.range(nDates * nStores).select(
      (id / nStores + 1).cast("long") as "date",
      (id % nStores + 1).cast("long") as "store",
      Gen.hIn(id, seed + 6, 1, 2000) as "txns",
    )
    val storesDf = spark.range(nStores).select(
      (id + 1) as "store",
      Gen.hIn(id, seed + 7, 1, 22) as "city",
      Gen.hIn(id, seed + 8, 1, 16) as "state",
      Gen.hIn(id, seed + 9, 1, 17) as "cluster",
    )
    val itemsDf = spark.range(nItems(sf)).select(
      (id + 1) as "item",
      Gen.hIn(id, seed + 10, 1, 33) as "family",
      Gen.hIn(id, seed + 11, 1, 337) as "iclass",
      Gen.h(id, seed + 12, 2) as "perishable",
    )
    val oilDf = spark.range(nDates).select(
      (id + 1) as "date",
      Gen.hIn(id, seed + 13, 30, 80) as "oilprize",
    )
    val holidaysDf = spark.range(nDates).select(
      (id + 1) as "date",
      Gen.h(id, seed + 14, 6) as "htype",
      Gen.h(id, seed + 15, 2) as "transferred",
    )
    Map(
      "Sales" -> salesDf,
      "Transactions" -> txDf,
      "Stores" -> storesDf,
      "Items" -> itemsDf,
      "Oil" -> oilDf,
      "Holidays" -> holidaysDf,
    )
  }

  /** The paper's running-example batch (§2): Q1 global SUM(units); Q2 per-store
    * SUM(g(item)·h(date)); Q3 per-class SUM(units·oilprize). ("price" in the
    * paper's Q3 maps to the oil price, the only price-like attribute in the
    * schema.)
    */
  def demoQueries: Seq[AggQuery] = Seq(
    AggQuery("Q1", Nil, Seq(Measure.sum("q1_sum_units", "units"))),
    AggQuery("Q2", Seq("store"),
      Seq(Measure("q2_sum_gh", Seq(Factor("item", ScalarFn.G), Factor("date", ScalarFn.H))))),
    AggQuery("Q3", Seq("iclass"), Seq(Measure.sumProduct("q3_sum_up", "units", "oilprize"))),
  )

  /** The paper's roots for the demo batch (Fig. 2): Q1 and Q2 at Sales, Q3 at
    * Items. The engine's own rule roots Q3 at Sales, because the Items key
    * `item` fixes `iclass`; pass these as `rootOverrides` to plan the paper's
    * structure.
    */
  val demoRoots: Map[String, String] = Map("Q1" -> "Sales", "Q2" -> "Sales", "Q3" -> "Items")
}
