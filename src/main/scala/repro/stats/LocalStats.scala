package repro.stats

/** Local-stage statistics (the paper's "Pandas computation" stage).
  *
  * Everything here operates on data already reduced/collected by the
  * distributed stage — small arrays, pair moments, contingency counts —
  * so plain Scala is faster than scheduling distributed work (the paper's
  * "Dask is slow on tiny data" observation, Section 5.2).
  */
object LocalStats {

  /** Sufficient statistics of one column pair over pairwise-complete rows. */
  final case class PairMoments(n: Long, sx: Double, sy: Double,
                               sxx: Double, syy: Double, sxy: Double) {
    /** Pearson correlation; NaN when undefined (n<2 or zero variance). */
    def pearson: Double = {
      if (n < 2) return Double.NaN
      val cov = n * sxy - sx * sy
      val vx  = n * sxx - sx * sx
      val vy  = n * syy - sy * sy
      if (vx <= 0 || vy <= 0) Double.NaN else cov / math.sqrt(vx) / math.sqrt(vy)
    }

    /** Least-squares line y = slope * x + intercept; NaN when undefined. */
    def regression: (Double, Double) = {
      if (n < 2) return (Double.NaN, Double.NaN)
      val vx = n * sxx - sx * sx
      if (vx <= 0) return (Double.NaN, Double.NaN)
      val slope = (n * sxy - sx * sy) / vx
      (slope, (sy - slope * sx) / n)
    }
  }

  def mean(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  /** Sample variance (n-1 denominator), matching Spark's var_samp. */
  def variance(xs: Seq[Double]): Double = {
    if (xs.size < 2) return Double.NaN
    val m = mean(xs)
    xs.map(x => (x - m) * (x - m)).sum / (xs.size - 1)
  }

  def stddev(xs: Seq[Double]): Double = math.sqrt(variance(xs))

  /** Population skewness m3 / m2^1.5, matching Spark's skewness(). */
  def skewness(xs: Seq[Double]): Double = {
    if (xs.size < 2) return Double.NaN
    val m = mean(xs)
    val n = xs.size.toDouble
    val m2 = xs.map(x => math.pow(x - m, 2)).sum / n
    val m3 = xs.map(x => math.pow(x - m, 3)).sum / n
    if (m2 <= 0) Double.NaN else m3 / math.pow(m2, 1.5)
  }

  def pearsonArrays(x: Array[Double], y: Array[Double]): Double = {
    require(x.length == y.length, "pearson: length mismatch")
    var sx = 0.0; var sy = 0.0; var sxx = 0.0; var syy = 0.0; var sxy = 0.0
    var i = 0
    while (i < x.length) {
      val a = x(i); val b = y(i)
      sx += a; sy += b; sxx += a * a; syy += b * b; sxy += a * b
      i += 1
    }
    PairMoments(x.length.toLong, sx, sy, sxx, syy, sxy).pearson
  }

  /** A column's rank encoding: each non-NaN value's index among the
    * column's sorted distinct values, and −1 for NaN (missing). −0.0 and 0.0
    * get the same code, as they are equal under `==`. Computed once per
    * column; every pair's Spearman and Kendall τ-b then work on these codes.
    */
  final class RankedColumn private (val codes: Array[Int], val distinct: Int)

  object RankedColumn {
    def apply(xs: Array[Double]): RankedColumn = {
      // + 0.0 maps −0.0 to 0.0 and leaves every other value as it is
      val values = xs.filter(!_.isNaN).map(_ + 0.0)
      java.util.Arrays.sort(values)
      var k = 0; var i = 0
      while (i < values.length) {
        if (k == 0 || values(i) != values(k - 1)) { values(k) = values(i); k += 1 }
        i += 1
      }
      val codes = xs.map(x =>
        if (x.isNaN) -1 else java.util.Arrays.binarySearch(values, 0, k, x + 0.0))
      new RankedColumn(codes, k)
    }
  }

  /** Per-code counts of both columns over the rows where both are present,
    * and the number of those rows.
    */
  private def jointCounts(x: RankedColumn, y: RankedColumn): (Array[Int], Array[Int], Int) = {
    val cx = x.codes; val cy = y.codes
    require(cx.length == cy.length, "rank correlation: length mismatch")
    val nx = new Array[Int](x.distinct); val ny = new Array[Int](y.distinct)
    var m = 0; var r = 0
    while (r < cx.length) {
      if (cx(r) >= 0 && cy(r) >= 0) { nx(cx(r)) += 1; ny(cy(r)) += 1; m += 1 }
      r += 1
    }
    (nx, ny, m)
  }

  /** Average 1-based rank of each code from the per-code counts: a code's
    * ties take ranks below+1 .. below+count and share their mean.
    */
  private def averageRanks(counts: Array[Int]): Array[Double] = {
    val out = new Array[Double](counts.length)
    var below = 0L; var k = 0
    while (k < counts.length) {
      out(k) = (2 * below + counts(k) + 1) / 2.0
      below += counts(k); k += 1
    }
    out
  }

  /** Spearman over the rows where both columns are present (pairwise
    * deletion, then average ranks within the pair: pandas semantics).
    * O(n + k) with no sort; NaN with fewer than two such rows.
    */
  def spearmanRanked(x: RankedColumn, y: RankedColumn): Double = {
    val (nx, ny, m) = jointCounts(x, y)
    if (m < 2) return Double.NaN
    val rx = averageRanks(nx); val ry = averageRanks(ny)
    val cx = x.codes; val cy = y.codes
    var sx = 0.0; var sy = 0.0; var sxx = 0.0; var syy = 0.0; var sxy = 0.0
    var r = 0
    while (r < cx.length) {
      if (cx(r) >= 0 && cy(r) >= 0) {
        val a = rx(cx(r)); val b = ry(cy(r))
        sx += a; sy += b; sxx += a * a; syy += b * b; sxy += a * b
      }
      r += 1
    }
    PairMoments(m.toLong, sx, sy, sxx, syy, sxy).pearson
  }

  /** Kendall's tau-b via Knight's O(n log n) algorithm over the rows where
    * both columns are present.
    *
    * tau-b = (P - Q) / sqrt((n0 - n1)(n0 - n2)) where n0 = n(n-1)/2,
    * n1/n2 are tie-pair counts in x/y, and P - Q = n0 - n1 - n2 + n3 - 2*swaps
    * (n3 = joint-tie pairs, swaps = inversions of y after sorting by
    * (x, y)). The rows are sorted as packed (x code, y code) longs; the
    * inversions of their y codes are counted with a Fenwick tree.
    */
  def kendallRanked(x: RankedColumn, y: RankedColumn): Double = {
    val (nx, ny, m) = jointCounts(x, y)
    if (m < 2) return Double.NaN
    val cx = x.codes; val cy = y.codes
    val keys = new Array[Long](m)
    var r = 0; var k = 0
    while (r < cx.length) {
      if (cx(r) >= 0 && cy(r) >= 0) { keys(k) = (cx(r).toLong << 32) | cy(r); k += 1 }
      r += 1
    }
    java.util.Arrays.sort(keys)

    def tiePairs(counts: Array[Int]): Long =
      counts.foldLeft(0L)((acc, t) => acc + t.toLong * (t - 1) / 2)
    val n0 = m.toLong * (m - 1) / 2
    val n1 = tiePairs(nx)
    val n2 = tiePairs(ny)
    // joint ties: runs of equal keys
    var n3 = 0L
    var i = 0
    while (i < m) {
      var j = i
      while (j + 1 < m && keys(j + 1) == keys(i)) j += 1
      val t = (j - i + 1).toLong
      n3 += t * (t - 1) / 2
      i = j + 1
    }

    val swaps = inversions(keys, y.distinct)
    val pq = n0 - n1 - n2 + n3 - 2 * swaps
    val denom = math.sqrt((n0 - n1).toDouble) * math.sqrt((n0 - n2).toDouble)
    if (denom == 0) Double.NaN else pq / denom
  }

  /** Number of pairs i < j whose y codes (the low 32 bits of the keys)
    * have y(i) > y(j): each key adds the earlier keys above it, taken from a
    * Fenwick tree of the y codes seen so far.
    */
  private def inversions(keys: Array[Long], distinct: Int): Long = {
    val tree = new Array[Int](distinct + 1)
    var swaps = 0L; var i = 0
    while (i < keys.length) {
      val code = keys(i).toInt + 1
      var j = code; var atMost = 0
      while (j > 0) { atMost += tree(j); j -= j & -j }
      swaps += i - atMost
      j = code
      while (j <= distinct) { tree(j) += 1; j += j & -j }
      i += 1
    }
    swaps
  }

  /** Spearman of two arrays; NaN means missing. */
  def spearmanArrays(x: Array[Double], y: Array[Double]): Double =
    spearmanRanked(RankedColumn(x), RankedColumn(y))

  /** Kendall's tau-b of two arrays; NaN means missing. */
  def kendallTauB(x: Array[Double], y: Array[Double]): Double =
    kendallRanked(RankedColumn(x), RankedColumn(y))

  /** Inverse standard-normal CDF (Acklam's rational approximation,
    * |relative error| < 1.15e-9). Used for normal Q-Q plots.
    */
  def normalPpf(p: Double): Double = {
    require(p > 0 && p < 1, s"normalPpf: p must be in (0,1), got $p")
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02,
      -2.759285104469687e+02, 1.383577518672690e+02,
      -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02,
      -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01,
      -2.400758277161838e+00, -2.549732539343734e+00,
      4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01,
      2.445134137142996e+00, 3.754408661907416e+00)
    val pLow = 0.02425
    if (p < pLow) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pLow) {
      val q = p - 0.5; val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      val q = math.sqrt(-2 * math.log(1 - p))
      -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    }
  }

  /** Standard normal CDF (Abramowitz–Stegun via erf). */
  def normalCdf(x: Double): Double = 0.5 * (1 + erf(x / math.sqrt(2.0)))

  private def erf(z: Double): Double = {
    // Abramowitz & Stegun 7.1.26, |error| < 1.5e-7
    val t = 1.0 / (1.0 + 0.3275911 * math.abs(z))
    val y = 1 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t -
      0.284496736) * t + 0.254829592) * t * math.exp(-z * z)
    if (z >= 0) y else -y
  }

  /** Shannon entropy of a count distribution, normalized to [0, 1]. */
  def normalizedEntropy(counts: Seq[Long]): Double = {
    val pos = counts.filter(_ > 0)
    if (pos.size <= 1) return 0.0
    val total = pos.sum.toDouble
    val h = -pos.map { c => val p = c / total; p * math.log(p) }.sum
    h / math.log(pos.size.toDouble)
  }

  /** L1 distance between two count distributions after normalization. */
  def l1Distance(a: Seq[Long], b: Seq[Long]): Double = {
    require(a.size == b.size, "l1Distance: length mismatch")
    val sa = math.max(1L, a.sum).toDouble
    val sb = math.max(1L, b.sum).toDouble
    a.zip(b).map { case (x, y) => math.abs(x / sa - y / sb) }.sum
  }
}
