package repro

import org.apache.spark.sql.DataFrame

/** Shared assertions for the EDA suites. */
trait TestHelpers { self: SparkSpec =>

  def assertApprox(actual: Double, expected: Double, tol: Double = 1e-6,
                   hint: String = ""): Unit = {
    if (expected.isNaN) assert(actual.isNaN, s"$hint: expected NaN, got $actual")
    else {
      val scale = math.max(1.0, math.max(math.abs(actual), math.abs(expected)))
      assert(math.abs(actual - expected) <= tol * scale,
        s"$hint: $actual != $expected (tol $tol)")
    }
  }

  def assertApproxSeq(actual: Seq[Double], expected: Seq[Double], tol: Double = 1e-6,
                      hint: String = ""): Unit = {
    assert(actual.size == expected.size, s"$hint: size ${actual.size} != ${expected.size}")
    actual.zip(expected).zipWithIndex.foreach { case ((a, e), i) =>
      assertApprox(a, e, tol, s"$hint[$i]")
    }
  }

  /** `df` with its columns renamed to names that Spark would parse unless
    * quoted: a dot, a space and a backtick in the first three, then dotted
    * names (`x.y`, `c d`, "a`b", `n.3`, `n.4`, ...).
    */
  def oddlyNamed(df: DataFrame): DataFrame = {
    val names = Seq("x.y", "c d", "a`b") ++ (3 until df.columns.length).map(i => s"n.$i")
    df.toDF(names.take(df.columns.length): _*)
  }

  /** Collect one numeric column to doubles, dropping nulls. */
  def collectDoubles(df: DataFrame, c: String): Seq[Double] = {
    import org.apache.spark.sql.functions.col
    import org.apache.spark.sql.types.DoubleType
    df.select(col(c).cast(DoubleType)).collect()
      .filter(!_.isNullAt(0)).map(_.getDouble(0)).toSeq
  }
}
