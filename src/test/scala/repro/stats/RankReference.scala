package repro.stats

/** Reference implementations of the rank correlations, kept in the test
  * tree to check `LocalStats`' rank-code kernels against:
  *
  *  - `spearman` / `kendallTauB`: the earlier per-pair bodies, which sort
  *    each pair's values (average ranks by an index sort; Knight's algorithm
  *    by a sort of (x, y) tuples). The rank-code kernels must match them bit
  *    for bit on inputs without mixed ±0.0.
  *  - `*FromMatrix`: the earlier pairwise-complete deletion around them.
  *  - `kendallTauBBrute`: the O(n²) definition, comparing values with `==`
  *    (−0.0 ties 0.0).
  */
object RankReference {

  /** Average ranks (1-based); ties share the mean of their rank range. */
  def averageRanks(xs: Array[Double]): Array[Double] = {
    val n = xs.length
    val sorted = Array.range(0, n).sortBy(xs)
    val out = new Array[Double](n)
    var i = 0
    while (i < n) {
      var j = i
      while (j + 1 < n && xs(sorted(j + 1)) == xs(sorted(i))) j += 1
      val r = (i + j + 2) / 2.0 // mean of 1-based ranks i+1 .. j+1
      var k = i
      while (k <= j) { out(sorted(k)) = r; k += 1 }
      i = j + 1
    }
    out
  }

  def spearman(x: Array[Double], y: Array[Double]): Double = {
    val rx = averageRanks(x); val ry = averageRanks(y)
    var sx = 0.0; var sy = 0.0; var sxx = 0.0; var syy = 0.0; var sxy = 0.0
    var i = 0
    while (i < x.length) {
      val a = rx(i); val b = ry(i)
      sx += a; sy += b; sxx += a * a; syy += b * b; sxy += a * b
      i += 1
    }
    LocalStats.PairMoments(x.length.toLong, sx, sy, sxx, syy, sxy).pearson
  }

  /** Knight's algorithm with the rows sorted as (x, y) tuples. */
  def kendallTauB(x: Array[Double], y: Array[Double]): Double = {
    val n = x.length
    if (n < 2) return Double.NaN
    val order = (0 until n).sortBy(i => (x(i), y(i))).toArray

    def tiePairs(sorted: Array[Double]): Long = {
      var total = 0L; var i = 0
      while (i < sorted.length) {
        var j = i
        while (j + 1 < sorted.length && sorted(j + 1) == sorted(i)) j += 1
        val t = (j - i + 1).toLong
        total += t * (t - 1) / 2
        i = j + 1
      }
      total
    }

    val n0 = n.toLong * (n - 1) / 2
    val n1 = tiePairs(x.sorted)
    val n2 = tiePairs(y.sorted)
    var n3 = 0L
    var i = 0
    while (i < n) {
      var j = i
      while (j + 1 < n &&
             x(order(j + 1)) == x(order(i)) && y(order(j + 1)) == y(order(i))) j += 1
      val t = (j - i + 1).toLong
      n3 += t * (t - 1) / 2
      i = j + 1
    }

    val ys = order.map(y)
    var swaps = 0L
    val buf = new Array[Double](n)
    def merge(lo: Int, mid: Int, hi: Int): Unit = {
      var a = lo; var b = mid; var k = lo
      while (a < mid && b < hi) {
        if (ys(a) <= ys(b)) { buf(k) = ys(a); a += 1 }
        else { buf(k) = ys(b); b += 1; swaps += (mid - a) }
        k += 1
      }
      while (a < mid) { buf(k) = ys(a); a += 1; k += 1 }
      while (b < hi)  { buf(k) = ys(b); b += 1; k += 1 }
      System.arraycopy(buf, lo, ys, lo, hi - lo)
    }
    def sort(lo: Int, hi: Int): Unit = {
      if (hi - lo < 2) return
      val mid = (lo + hi) >>> 1
      sort(lo, mid); sort(mid, hi); merge(lo, mid, hi)
    }
    sort(0, n)

    val pq = n0 - n1 - n2 + n3 - 2 * swaps
    val denom = math.sqrt((n0 - n1).toDouble) * math.sqrt((n0 - n2).toDouble)
    if (denom == 0) Double.NaN else pq / denom
  }

  /** Brute-force tau-b; `+ 0.0` makes −0.0 compare equal to 0.0, as `==` does. */
  def kendallTauBBrute(x: Array[Double], y: Array[Double]): Double = {
    val n = x.length
    if (n < 2) return Double.NaN
    var p = 0L; var q = 0L; var tx = 0L; var ty = 0L
    for (i <- 0 until n; j <- i + 1 until n) {
      val dx = java.lang.Double.compare(x(i) + 0.0, x(j) + 0.0)
      val dy = java.lang.Double.compare(y(i) + 0.0, y(j) + 0.0)
      if (dx == 0 && dy == 0) () // joint tie: counts in neither
      else if (dx == 0) tx += 1
      else if (dy == 0) ty += 1
      else if (dx * dy > 0) p += 1
      else q += 1
    }
    val denom = math.sqrt((p + q + tx).toDouble) * math.sqrt((p + q + ty).toDouble)
    if (denom == 0) Double.NaN else (p - q) / denom
  }

  private def completePairs(x: Array[Double], y: Array[Double]): (Array[Double], Array[Double]) = {
    val keep = x.indices.filter(r => !x(r).isNaN && !y(r).isNaN)
    (keep.map(x).toArray, keep.map(y).toArray)
  }

  private def perPair(cols: Seq[String], matrix: Array[Array[Double]])(
      f: (Array[Double], Array[Double]) => Double): Map[(String, String), Double] =
    (for (i <- cols.indices; j <- i + 1 until cols.size) yield {
      val (xs, ys) = completePairs(matrix(i), matrix(j))
      (cols(i), cols(j)) -> f(xs, ys)
    }).toMap

  def spearmanFromMatrix(cols: Seq[String], matrix: Array[Array[Double]]): Map[(String, String), Double] =
    perPair(cols, matrix)((xs, ys) => if (xs.length > 1) spearman(xs, ys) else Double.NaN)

  def kendallFromMatrix(cols: Seq[String], matrix: Array[Array[Double]]): Map[(String, String), Double] =
    perPair(cols, matrix)(kendallTauB)
}
