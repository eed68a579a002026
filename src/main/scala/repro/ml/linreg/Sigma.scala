package repro.ml.linreg

import org.apache.spark.sql.DataFrame

import repro.core.query.{AggQuery, LocalRow}
import repro.ml.linalg.DenseMatrix

/** The assembled non-centred covariance matrix Σ with its feature index map.
  *
  * Index layout: 0 = intercept; continuous features next (in spec order);
  * then one index per observed value of each categorical feature (values
  * sorted); the label last.
  */
final case class Sigma(
    matrix: DenseMatrix,
    count: Double,
    features: Features,
    catValueIndex: Map[String, Map[Long, Int]],
) {
  def dim: Int = matrix.rows
  def interceptIdx: Int = 0
  def contIdx(attr: String): Int = 1 + features.continuous.indexOf(attr)
  def labelIdx: Int = dim - 1
  /** Indices of the free (learned) parameters: everything but the label. */
  def freeIdx: Seq[Int] = 0 until (dim - 1)
}

/** Assembles Σ from the results of the [[SigmaBatch]] queries. */
object Sigma {

  def assemble(results: Map[String, DataFrame], f: Features): Sigma = {
    // Every query of the batch is brought to the driver exactly once.
    val local: Map[String, Seq[LocalRow]] =
      SigmaBatch.queries(f).map(q => q.name -> AggQuery.collect(q, results(q.name))).toMap

    def scalar(q: String): Double = local(q).headOption.fold(0.0)(_.measures.head)

    def grouped(q: String): Map[Seq[Long], Double] =
      local(q).map(r => r.keys -> r.measures.head).toMap

    // Observed categorical domains come from the per-category count queries.
    val catValueLists: Map[String, Seq[Long]] = f.categorical.map { c =>
      c -> grouped(s"sigma_c_$c").keys.map(_.head).toSeq.sorted
    }.toMap

    val nCont = f.continuous.size
    val catOffsets = scala.collection.mutable.Map.empty[String, Int]
    var offset = 1 + nCont
    f.categorical.foreach { c =>
      catOffsets(c) = offset
      offset += catValueLists(c).size
    }
    val labelIdx = offset
    val dim = offset + 1
    val catValueIndex: Map[String, Map[Long, Int]] = f.categorical.map { c =>
      c -> catValueLists(c).zipWithIndex.map { case (v, i) => v -> (catOffsets(c) + i) }.toMap
    }.toMap

    def contIdxAll(a: String): Int =
      if (a == f.label) labelIdx else 1 + f.continuous.indexOf(a)

    val m = DenseMatrix.zeros(dim, dim)
    def set(i: Int, j: Int, v: Double): Unit = { m(i, j) = v; m(j, i) = v }

    val n = scalar("sigma_cnt")
    set(0, 0, n)
    f.contAll.foreach(a => set(0, contIdxAll(a), scalar(s"sigma_s_$a")))
    for {
      (a, i) <- f.contAll.zipWithIndex
      b <- f.contAll.drop(i)
    } set(contIdxAll(a), contIdxAll(b), scalar(s"sigma_p_${a}_$b"))

    f.categorical.foreach { c =>
      grouped(s"sigma_c_$c").foreach { case (Seq(v), cntV) =>
        val idx = catValueIndex(c)(v)
        set(0, idx, cntV)     // intercept × one-hot
        set(idx, idx, cntV)   // one-hot diagonal (x² = x for 0/1)
      }
    }
    for { c <- f.categorical; a <- f.contAll } {
      grouped(s"sigma_cs_${c}_$a").foreach { case (Seq(v), s) =>
        set(catValueIndex(c)(v), contIdxAll(a), s)
      }
    }
    for {
      (c1, i) <- f.categorical.zipWithIndex
      c2 <- f.categorical.drop(i + 1)
    } {
      grouped(s"sigma_cc_${c1}_$c2").foreach { case (Seq(v1, v2), cnt12) =>
        set(catValueIndex(c1)(v1), catValueIndex(c2)(v2), cnt12)
      }
    }

    Sigma(m, n, f, catValueIndex)
  }
}
