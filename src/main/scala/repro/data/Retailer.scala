package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

import repro.core.schema.{JoinTree, Relation}

/** Synthetic stand-in for the commercial Retailer dataset (84M tuples; not
  * publicly available). Schema follows the SIGMOD'19 LMFAO paper: Inventory is
  * the fact table, Location links to Census through zip (a two-hop chain that
  * makes view direction matter), Item and Weather hang off Inventory.
  * Integer-valued Longs throughout; sizes scale with `sf` (SF=1 ≈ 4.2M
  * inventory rows). Every dimension relation declares its key; the generator
  * builds each key from `range` ids, so the keys hold. The tree's domain hints
  * are the generators' value ranges.
  */
object Retailer {
  val inventory: Relation = Relation("Inventory", Seq("locn", "dateid", "ksn", "inventoryunits"))
  val location: Relation  = Relation("Location", Seq("locn", "zip", "rgn"), key = Seq("locn"))
  val census: Relation    = Relation("Census", Seq("zip", "population", "medianage", "households"), key = Seq("zip"))
  val item: Relation      = Relation("Item", Seq("ksn", "category", "subcategory", "categorycluster", "prize"),
    key = Seq("ksn"))
  val weather: Relation   = Relation("Weather", Seq("locn", "dateid", "rain", "snow", "maxtemp", "mintemp", "thunder"),
    key = Seq("locn", "dateid"))

  val relations: Seq[Relation] = Seq(inventory, location, census, item, weather)

  val edges: Seq[(String, String)] = Seq(
    ("Inventory", "Location"),
    ("Location", "Census"),
    ("Inventory", "Item"),
    ("Inventory", "Weather"),
  )

  val nLocn  = 100L
  val nZip   = 30L
  val nDates = 200L

  def nKsn(sf: Double): Long = math.max(20L, (40000 * sf).toLong)
  def nInventory(sf: Double): Long = math.max(100L, (4_200_000L * sf).toLong)

  def tree(sf: Double): JoinTree = JoinTree(
    relations,
    edges,
    sizes = Map(
      "Inventory" -> nInventory(sf),
      "Location" -> nLocn,
      "Census" -> nZip,
      "Item" -> nKsn(sf),
      "Weather" -> nLocn * nDates,
    ),
    // The number of values each generator below can draw.
    domains = Map(
      "locn" -> nLocn, "dateid" -> nDates, "ksn" -> nKsn(sf), "inventoryunits" -> 30L, "zip" -> nZip,
      "rgn" -> 10L, "population" -> 20000L, "medianage" -> 60L, "households" -> 8000L, "category" -> 40L,
      "subcategory" -> 400L, "categorycluster" -> 10L, "prize" -> 999L, "rain" -> 2L, "snow" -> 2L,
      "maxtemp" -> 45L, "mintemp" -> 25L, "thunder" -> 2L,
    ),
  )

  /** All five relations at scale factor `sf`, deterministic in (sf, seed). */
  def tables(spark: SparkSession, sf: Double, seed: Long = 100): Map[String, DataFrame] = {
    val id = col("id")
    val inventoryDf = spark.range(nInventory(sf)).select(
      Gen.hIn(id, seed + 1, 1, nLocn) as "locn",
      Gen.hIn(id, seed + 2, 1, nDates) as "dateid",
      Gen.hIn(id, seed + 3, 1, nKsn(sf)) as "ksn",
      Gen.h(id, seed + 4, 30) as "inventoryunits",
    )
    val locationDf = spark.range(nLocn).select(
      (id + 1) as "locn",
      Gen.hIn(id, seed + 5, 1, nZip) as "zip",
      Gen.hIn(id, seed + 6, 1, 10) as "rgn",
    )
    val censusDf = spark.range(nZip).select(
      (id + 1) as "zip",
      Gen.hIn(id, seed + 7, 500, 20000) as "population",
      Gen.hIn(id, seed + 8, 18, 60) as "medianage",
      Gen.hIn(id, seed + 9, 100, 8000) as "households",
    )
    val itemDf = spark.range(nKsn(sf)).select(
      (id + 1) as "ksn",
      Gen.hIn(id, seed + 10, 1, 40) as "category",
      Gen.hIn(id, seed + 11, 1, 400) as "subcategory",
      Gen.hIn(id, seed + 12, 1, 10) as "categorycluster",
      Gen.hIn(id, seed + 13, 1, 999) as "prize",
    )
    val weatherDf = spark.range(nLocn * nDates).select(
      (id / nDates + 1).cast("long") as "locn",
      (id % nDates + 1).cast("long") as "dateid",
      Gen.h(id, seed + 14, 2) as "rain",
      Gen.h(id, seed + 15, 2) as "snow",
      Gen.hIn(id, seed + 16, 5, 45) as "maxtemp",
      Gen.h(id, seed + 17, 25) as "mintemp",
      Gen.h(id, seed + 18, 2) as "thunder",
    )
    Map(
      "Inventory" -> inventoryDf,
      "Location" -> locationDf,
      "Census" -> censusDf,
      "Item" -> itemDf,
      "Weather" -> weatherDf,
    )
  }
}
