package repro.ml.linreg

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, sum}

import repro.ml.linalg.Vec

/** The mainstream learning-over-joins baseline (paper §1): materialise the
  * join D and run one full scan of D per gradient-descent iteration, as a
  * TensorFlow / scikit-learn pipeline over the exported join would. Continuous
  * features + intercept (the benchmarked configuration on both sides).
  *
  * Gradient per iteration: ∇J_j = (1/N) Σ_D (⟨θ,x⟩ − y)·x_j + λθ_j.
  */
object GradientBaseline {

  /** One pass over D computing the residual moments for the gradient.
    * Returns (N, Σ r·x_j for each feature including intercept, Σ r²).
    */
  private def gradientPass(d: DataFrame, continuous: Seq[String], label: String,
                           theta: Array[Double]): (Double, Array[Double], Double) = {
    // residual = θ₀ + Σ_j θ_j x_j − y
    val residual = continuous.zipWithIndex
      .foldLeft(lit(theta(0))) { case (acc, (a, j)) => acc + lit(theta(j + 1)) * col(a).cast("double") }
      .minus(col(label).cast("double"))
    val aggs =
      sum(lit(1.0)).as("n") +:
      sum(residual).as("g0") +:
      continuous.zipWithIndex.map { case (a, j) => sum(residual * col(a).cast("double")).as(s"g${j + 1}") } :+
      sum(residual * residual).as("rss")
    val row = d.agg(aggs.head, aggs.tail: _*).collect()(0)
    val n = row.getAs[Double]("n")
    val g = Array.tabulate(continuous.size + 1)(j => row.getAs[Double](s"g$j"))
    (n, g, row.getAs[Double]("rss"))
  }

  /** A safe initial step size: 1/trace(Σ/N) ≤ 1/λmax, estimated with one
    * extra scan of D (charged to the baseline, as any real pipeline would).
    */
  def autoStep(d: DataFrame, continuous: Seq[String]): Double = {
    val aggs = sum(lit(1.0)).as("n") +:
      continuous.zipWithIndex.map { case (a, j) =>
        sum(col(a).cast("double") * col(a).cast("double")).as(s"t$j")
      }
    val row = d.agg(aggs.head, aggs.tail: _*).collect()(0)
    val n = row.getAs[Double]("n")
    val trace = n + continuous.indices.map(j => row.getAs[Double](s"t$j")).sum
    n / trace
  }

  /** BGD where every iteration is one Spark scan of D. Initial step from
    * [[autoStep]] (or an explicit override), halved on objective increase
    * (same Armijo spirit as the LMFAO path, but each probe would cost a scan,
    * so we only re-probe on failure).
    */
  def train(d: DataFrame, continuous: Seq[String], label: String, lambda: Double,
            iterations: Int, step0: Option[Double] = None): LinearRegression.Fit = {
    var theta = new Array[Double](continuous.size + 1)
    var step = step0.getOrElse(autoStep(d, continuous))
    var lastObj = Double.MaxValue
    val objs = scala.collection.mutable.ArrayBuffer.empty[Double]
    var it = 0
    while (it < iterations) {
      val (n, moments, rss) = gradientPass(d, continuous, label, theta)
      val obj = rss / (2.0 * n) + lambda / 2.0 * theta.drop(1).map(t => t * t).sum
      if (obj > lastObj) step *= 0.5
      lastObj = math.min(obj, lastObj)
      objs += obj
      val g = Array.tabulate(theta.length) { j =>
        moments(j) / n + (if (j == 0) 0.0 else lambda * theta(j))
      }
      theta = Vec.axpy(-step, g, theta)
      it += 1
    }
    LinearRegression.Fit(theta, objs.toSeq, it)
  }
}
