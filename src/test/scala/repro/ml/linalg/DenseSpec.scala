package repro.ml.linalg

import org.scalatest.funsuite.AnyFunSuite

class DenseSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    math.abs(a - b) <= tol * (1.0 + math.abs(a) + math.abs(b))

  test("zeros builds an all-zero matrix") {
    val m = DenseMatrix.zeros(2, 3)
    assert(m.data.forall(_ == 0.0))
  }

  test("update and apply round-trip") {
    val m = DenseMatrix.zeros(2, 2)
    m(1, 0) = 5.0
    assert(m(1, 0) == 5.0 && m(0, 1) == 0.0)
  }

  test("matrix-vector product") {
    val m = new DenseMatrix(2, 3, Array(1, 2, 3, 4, 5, 6).map(_.toDouble))
    val v = Array(1.0, 0.5, 2.0)
    assert(m * v sameElements Array(1 + 1 + 6.0, 4 + 2.5 + 12.0))
  }

  test("matrix-vector product rejects dimension mismatch") {
    assertThrows[IllegalArgumentException](DenseMatrix.zeros(2, 3) * Array(1.0, 2.0))
  }

  test("isSymmetric detects symmetry and asymmetry") {
    val s = new DenseMatrix(2, 2, Array(1.0, 2.0, 2.0, 5.0))
    val a = new DenseMatrix(2, 2, Array(1.0, 2.0, 3.0, 5.0))
    assert(s.isSymmetric())
    assert(!a.isSymmetric())
  }

  test("solve inverts a 2x2 system") {
    val m = new DenseMatrix(2, 2, Array(2.0, 1.0, 1.0, 3.0))
    val x = m.solve(Array(5.0, 10.0))
    assert(approx(2.0 * x(0) + x(1), 5.0) && approx(x(0) + 3.0 * x(1), 10.0))
  }

  test("solve needs pivoting for a zero leading entry") {
    val m = new DenseMatrix(2, 2, Array(0.0, 1.0, 1.0, 0.0))
    val x = m.solve(Array(7.0, 9.0))
    assert(approx(x(0), 9.0) && approx(x(1), 7.0))
  }

  test("solve(A, A*x) recovers x for random SPD-ish systems") {
    val rng = new scala.util.Random(7)
    (1 to 10).foreach { _ =>
      val n = 1 + rng.nextInt(6)
      val b = Array.fill(n * n)(rng.nextDouble() * 2 - 1)
      // A = B Bᵀ + I is SPD.
      val a = DenseMatrix.zeros(n, n)
      for (i <- 0 until n; j <- 0 until n) {
        var s = if (i == j) 1.0 else 0.0
        for (k <- 0 until n) s += b(i * n + k) * b(j * n + k)
        a(i, j) = s
      }
      val x = Array.fill(n)(rng.nextDouble() * 4 - 2)
      val got = a.solve(a * x)
      x.indices.foreach(i => assert(approx(got(i), x(i), 1e-7)))
    }
  }

  test("solve rejects singular systems") {
    val m = new DenseMatrix(2, 2, Array(1.0, 2.0, 2.0, 4.0))
    assertThrows[IllegalArgumentException](m.solve(Array(1.0, 2.0)))
  }

  test("solve mutates neither operand") {
    val m = new DenseMatrix(2, 2, Array(2.0, 0.0, 0.0, 2.0))
    val b = Array(4.0, 6.0)
    m.solve(b)
    assert(m.data sameElements Array(2.0, 0.0, 0.0, 2.0))
    assert(b sameElements Array(4.0, 6.0))
  }

  test("Vec.dot") {
    assert(Vec.dot(Array(1.0, 2.0), Array(3.0, 4.0)) == 11.0)
  }

  test("Vec.axpy computes alpha*x + y") {
    assert(Vec.axpy(2.0, Array(1.0, 2.0), Array(10.0, 20.0)) sameElements Array(12.0, 24.0))
  }

  test("Vec.norm2") {
    assert(Vec.norm2(Array(3.0, 4.0)) == 5.0)
  }

  test("Vec.sqDist") {
    assert(Vec.sqDist(Array(1.0, 2.0), Array(4.0, 6.0)) == 25.0)
  }
}
