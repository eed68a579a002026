package repro.ml.linalg

/** Minimal dense linear algebra for the ML applications (no external numeric
  * libraries are resolvable offline). Row-major, mutable, small matrices only
  * (Σ is (#features)² and fits trivially in memory).
  */
final class DenseMatrix(val rows: Int, val cols: Int, val data: Array[Double]) {
  require(data.length == rows * cols, "data length must be rows*cols")

  def apply(i: Int, j: Int): Double = data(i * cols + j)
  def update(i: Int, j: Int, v: Double): Unit = data(i * cols + j) = v

  /** Matrix-vector product. */
  def *(v: Array[Double]): Array[Double] = {
    require(v.length == cols, "dimension mismatch")
    val out = new Array[Double](rows)
    var i = 0
    while (i < rows) {
      var s = 0.0
      var j = 0
      while (j < cols) { s += data(i * cols + j) * v(j); j += 1 }
      out(i) = s
      i += 1
    }
    out
  }

  def copy: DenseMatrix = new DenseMatrix(rows, cols, data.clone())

  def isSymmetric(tol: Double = 1e-9): Boolean = {
    rows == cols && (0 until rows).forall(i => (0 until i).forall { j =>
      math.abs(this(i, j) - this(j, i)) <= tol * (1.0 + math.abs(this(i, j)))
    })
  }

  /** Solve `this * x = b` by Gaussian elimination with partial pivoting.
    * Mutates neither operand.
    */
  def solve(b: Array[Double]): Array[Double] = {
    require(rows == cols && b.length == rows, "solve needs a square system")
    val n = rows
    val a = data.clone()
    val x = b.clone()
    var k = 0
    while (k < n) {
      var piv = k
      var i = k + 1
      while (i < n) { if (math.abs(a(i * n + k)) > math.abs(a(piv * n + k))) piv = i; i += 1 }
      require(math.abs(a(piv * n + k)) > 1e-12, s"singular system at column $k")
      if (piv != k) {
        var j = 0
        while (j < n) { val t = a(k * n + j); a(k * n + j) = a(piv * n + j); a(piv * n + j) = t; j += 1 }
        val t = x(k); x(k) = x(piv); x(piv) = t
      }
      i = k + 1
      while (i < n) {
        val f = a(i * n + k) / a(k * n + k)
        var j = k
        while (j < n) { a(i * n + j) -= f * a(k * n + j); j += 1 }
        x(i) -= f * x(k)
        i += 1
      }
      k += 1
    }
    var ii = n - 1
    while (ii >= 0) {
      var s = x(ii)
      var j = ii + 1
      while (j < n) { s -= a(ii * n + j) * x(j); j += 1 }
      x(ii) = s / a(ii * n + ii)
      ii -= 1
    }
    x
  }
}

object DenseMatrix {
  def zeros(rows: Int, cols: Int): DenseMatrix = new DenseMatrix(rows, cols, new Array[Double](rows * cols))
}

/** Small vector helpers shared by the ML modules. */
object Vec {
  def dot(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "dimension mismatch")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }
  def axpy(alpha: Double, x: Array[Double], y: Array[Double]): Array[Double] = {
    require(x.length == y.length, "dimension mismatch")
    Array.tabulate(x.length)(i => alpha * x(i) + y(i))
  }
  def norm2(x: Array[Double]): Double = math.sqrt(dot(x, x))
  def sqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }
}
