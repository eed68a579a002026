package repro.ml.rkmeans

import repro.ml.linalg.Vec

/** Weighted Lloyd's algorithm with deterministic k-means++ seeding.
  *
  * Used three times by Rk-means: per-dimension 1-d clustering of the weighted
  * projections (Step 2), clustering of the weighted grid coreset (Step 4), and
  * as the conventional full-data comparator for the quality metric.
  */
object WeightedKMeans {

  final case class Model(centroids: Array[Array[Double]], cost: Double, iterations: Int) {
    def assign(p: Array[Double]): Int = nearest(p, centroids)
  }

  /** Index of the centroid nearest to `p`; the first one on a tie. */
  private def nearest(p: Array[Double], centroids: Array[Array[Double]]): Int = {
    var best = 0
    var bestDist = Vec.sqDist(p, centroids(0))
    var k = 1
    while (k < centroids.length) {
      val d = Vec.sqDist(p, centroids(k))
      if (d < bestDist) { best = k; bestDist = d }
      k += 1
    }
    best
  }

  /** Weighted k-means cost: Σ w_i · min_k ‖p_i − c_k‖². */
  def cost(points: Array[Array[Double]], weights: Array[Double],
           centroids: Array[Array[Double]]): Double = {
    var s = 0.0
    var i = 0
    while (i < points.length) {
      var best = Double.MaxValue
      var k = 0
      while (k < centroids.length) {
        val d = Vec.sqDist(points(i), centroids(k))
        if (d < best) best = d
        k += 1
      }
      s += weights(i) * best
      i += 1
    }
    s
  }

  /** Deterministic weighted k-means++ seeding. */
  def seedPlusPlus(points: Array[Array[Double]], weights: Array[Double], k: Int,
                   seed: Long): Array[Array[Double]] = {
    require(points.nonEmpty, "cannot seed k-means on no points")
    val rng = new scala.util.Random(seed)
    val centroids = scala.collection.mutable.ArrayBuffer[Array[Double]]()
    centroids += points(rng.nextInt(points.length))
    while (centroids.size < math.min(k, points.length)) {
      val d2 = points.map(p => centroids.map(c => Vec.sqDist(p, c)).min)
      val scores = d2.zip(weights).map { case (d, w) => d * w }
      val total = scores.sum
      if (total <= 0) {
        // All mass already covered; pick any uncovered-by-index point.
        centroids += points((centroids.size * 7919) % points.length)
      } else {
        var r = rng.nextDouble() * total
        var i = 0
        while (i < points.length - 1 && r > scores(i)) { r -= scores(i); i += 1 }
        centroids += points(i)
      }
    }
    centroids.toArray
  }

  def fit(points: Array[Array[Double]], weights: Array[Double], k: Int,
          maxIters: Int = 100, seed: Long = 42): Model = {
    require(points.length == weights.length, "one weight per point")
    require(points.nonEmpty, "cannot cluster no points")
    var centroids = seedPlusPlus(points, weights, k, seed)
    var lastCost = Double.MaxValue
    var it = 0
    var converged = false
    while (it < maxIters && !converged) {
      // Assignment step.
      val assignments = new Array[Int](points.length)
      var p = 0
      while (p < points.length) { assignments(p) = nearest(points(p), centroids); p += 1 }
      // Update step (weighted means; empty clusters keep their centroid).
      val dim = points(0).length
      val sums = Array.fill(centroids.length)(new Array[Double](dim))
      val mass = new Array[Double](centroids.length)
      var i = 0
      while (i < points.length) {
        val c = assignments(i)
        mass(c) += weights(i)
        var j = 0
        while (j < dim) { sums(c)(j) += weights(i) * points(i)(j); j += 1 }
        i += 1
      }
      centroids = centroids.indices.map { c =>
        if (mass(c) > 0) sums(c).map(_ / mass(c)) else centroids(c)
      }.toArray
      val newCost = cost(points, weights, centroids)
      converged = newCost >= lastCost - 1e-12
      lastCost = newCost
      it += 1
    }
    Model(centroids, lastCost, it)
  }
}
