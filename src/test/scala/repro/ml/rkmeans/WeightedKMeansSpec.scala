package repro.ml.rkmeans

import org.scalatest.funsuite.AnyFunSuite

class WeightedKMeansSpec extends AnyFunSuite {

  test("two well-separated clusters are recovered") {
    val pts = Array(Array(0.0), Array(1.0), Array(2.0), Array(100.0), Array(101.0), Array(102.0))
    val ws = Array.fill(6)(1.0)
    val m = WeightedKMeans.fit(pts, ws, k = 2)
    val cs = m.centroids.map(_(0)).sorted
    assert(math.abs(cs(0) - 1.0) < 1e-9 && math.abs(cs(1) - 101.0) < 1e-9)
    assert(m.cost == 4.0) // 2 clusters x variance 2 each
  }

  test("weights shift the centroid") {
    val pts = Array(Array(0.0), Array(10.0))
    val ws = Array(3.0, 1.0)
    val m = WeightedKMeans.fit(pts, ws, k = 1)
    assert(math.abs(m.centroids(0)(0) - 2.5) < 1e-9)
  }

  test("k >= #points puts a centroid on every point") {
    val pts = Array(Array(1.0, 2.0), Array(5.0, 5.0), Array(9.0, 0.0))
    val m = WeightedKMeans.fit(pts, Array(1.0, 1.0, 1.0), k = 5)
    assert(m.cost < 1e-12)
  }

  test("fit is deterministic for a fixed seed") {
    val rng = new scala.util.Random(1)
    val pts = Array.fill(50)(Array(rng.nextDouble() * 10, rng.nextDouble() * 10))
    val ws = Array.fill(50)(1.0 + rng.nextInt(5))
    val a = WeightedKMeans.fit(pts, ws, k = 4, seed = 9)
    val b = WeightedKMeans.fit(pts, ws, k = 4, seed = 9)
    assert(a.centroids.map(_.toSeq).toSeq == b.centroids.map(_.toSeq).toSeq)
    assert(a.cost == b.cost)
  }

  test("cost never increases across refits with the model's own centroids") {
    val rng = new scala.util.Random(2)
    val pts = Array.fill(40)(Array(rng.nextDouble() * 10))
    val ws = Array.fill(40)(1.0)
    val m = WeightedKMeans.fit(pts, ws, k = 3)
    assert(WeightedKMeans.cost(pts, ws, m.centroids) == m.cost)
  }

  test("assign picks the nearest centroid") {
    val m = WeightedKMeans.Model(Array(Array(0.0), Array(10.0)), 0.0, 1)
    assert(m.assign(Array(1.0)) == 0)
    assert(m.assign(Array(9.0)) == 1)
  }

  test("cost of a single centroid equals the weighted variance around it") {
    val pts = Array(Array(0.0), Array(4.0))
    val ws = Array(1.0, 1.0)
    assert(WeightedKMeans.cost(pts, ws, Array(Array(2.0))) == 8.0)
  }

  test("multi-dimensional clustering separates the diagonal") {
    val pts = Array(Array(0.0, 0.0), Array(0.5, 0.5), Array(10.0, 10.0), Array(10.5, 10.5))
    val m = WeightedKMeans.fit(pts, Array.fill(4)(1.0), k = 2)
    val cs = m.centroids.map(_.toSeq).sortBy(_.head)
    assert(cs(0) == Seq(0.25, 0.25) && cs(1) == Seq(10.25, 10.25))
  }

  test("zero-weight points do not attract centroids") {
    val pts = Array(Array(0.0), Array(1.0), Array(1000.0))
    val ws = Array(1.0, 1.0, 0.0)
    val m = WeightedKMeans.fit(pts, ws, k = 1)
    assert(math.abs(m.centroids(0)(0) - 0.5) < 1e-9)
  }

  test("empty input is rejected") {
    assertThrows[IllegalArgumentException](WeightedKMeans.fit(Array.empty, Array.empty, k = 2))
  }

  test("mismatched weights are rejected") {
    assertThrows[IllegalArgumentException](
      WeightedKMeans.fit(Array(Array(1.0)), Array(1.0, 2.0), k = 1))
  }

  test("k-means++ seeding returns min(k, #points) distinct-index centroids") {
    val pts = Array(Array(1.0), Array(2.0))
    val seeds = WeightedKMeans.seedPlusPlus(pts, Array(1.0, 1.0), k = 5, seed = 1)
    assert(seeds.length == 2)
  }

  // Recorded centroids, cost, iteration count and assignments: the
  // nearest-centroid search must keep the first minimum and the summation
  // order, so they hold bit for bit (a Double literal reads back as the bits
  // it was printed from).
  test("fit reproduces its recorded result on a seeded 1-d input of 2,000 points") {
    val rng = new scala.util.Random(7)
    val pts = Array.fill(2000)(Array(rng.nextInt(500).toDouble))
    val ws = Array.fill(2000)(1.0 + rng.nextInt(9))
    val m = WeightedKMeans.fit(pts, ws, k = 5, seed = 3)
    assert(m.centroids.map(_.toSeq).toSeq == Seq(Seq(359.27440505099565), Seq(54.11094452773613),
      Seq(263.1378126532614), Seq(452.99652173913046), Seq(159.89829749103941)))
    assert(m.cost == 8321645.498766355)
    assert(m.iterations == 14)
    assert(pts.take(20).map(m.assign).toSeq == Seq(2, 4, 3, 1, 0, 2, 3, 4, 0, 1, 4, 2, 4, 3, 3, 4, 3, 2, 2, 2))
  }

  test("fit reproduces its recorded result on a seeded 3-d input") {
    val rng = new scala.util.Random(8)
    val pts = Array.fill(300)(Array(rng.nextGaussian() * 4, rng.nextInt(30).toDouble, rng.nextDouble() * 10))
    val ws = Array.fill(300)(rng.nextInt(4).toDouble)
    val m = WeightedKMeans.fit(pts, ws, k = 4, seed = 11)
    assert(m.centroids.map(_.toSeq).toSeq == Seq(
      Seq(1.3923877271273932, 3.278688524590164, 5.394571175127984),
      Seq(4.186201069562104, 20.80808080808081, 5.153648103507558),
      Seq(-1.8367226022907188, 23.690721649484537, 5.733209875944788),
      Seq(-1.4005523611758814, 11.733333333333333, 4.750744889453827)))
    assert(m.cost == 12368.93718007145)
    assert(m.iterations == 20)
    assert(pts.take(20).map(m.assign).toSeq == Seq(3, 3, 0, 0, 3, 0, 1, 1, 2, 2, 2, 3, 0, 0, 1, 0, 3, 2, 2, 3))
  }
}
