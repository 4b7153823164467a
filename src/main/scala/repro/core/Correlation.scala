package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.Intermediates._
import repro.stats.LocalStats

/** Correlation task — plot_correlation(df[, col1[, col2]]) (Figure 2).
  *
  * Matrix/vector: Pearson, Spearman, and Kendall tau over the numeric
  * columns. One reduce-to-driver collect of the numeric matrix (sampled
  * above `corr.maxrows`) feeds all three coefficient computations, which
  * run locally and fan the column pairs across threads — the Section 5.2
  * engine-stage/local-stage split with its heuristic boundary: the engine
  * reduces n×m to min(n, maxrows)×m once; scheduling one distributed job
  * per coefficient would cost more than computing them. Pairwise-complete
  * deletion per pair, with each column ranked once and average ranks taken
  * within the pair (pandas semantics); results are exact whenever
  * n <= corr.maxrows (all Table 2 workloads).
  *
  * Pair: scatter plot with a regression line plus the three coefficients;
  * the regression moments come from one exact distributed agg.
  */
object Correlation {

  final case class CorrelationIntermediates(
      columns: Seq[String],
      matrices: Seq[CorrelationMatrix],
      insights: Seq[Insight])

  final case class CorrelationVectorIntermediates(
      column: String, others: Seq[String],
      vectors: Seq[CorrelationVector],
      insights: Seq[Insight])

  final case class CorrelationPairIntermediates(
      scatter: ScatterPlot,
      coefficients: Map[String, Double],
      insights: Seq[Insight])

  private def corrColumns(df: DataFrame, cfg: EdaConfig): Seq[String] =
    TypeDetector.numericColumns(df).take(cfg.int("corr.maxcols"))

  def matrix(df: DataFrame, cfg: EdaConfig): CorrelationIntermediates = {
    val cols = corrColumns(df, cfg)
    val aggs = SparkStage.columnAggregates(df, cols, Nil, withDuplicates = false)
    matrixFromAggregates(df, cols, aggs, cfg)
  }

  /** Matrix computation given a shared pass 1 (reused by createReport). */
  def matrixFromAggregates(df: DataFrame, cols: Seq[String],
                           aggs: SparkStage.TableAggregates,
                           cfg: EdaConfig): CorrelationIntermediates = {
    if (cols.size < 2) return CorrelationIntermediates(cols, Nil, Nil)
    val hasVariance = (c: String) => {
      val s = aggs.numeric(c); s.count > 1 && !s.std.isNaN && s.std > 0
    }
    val methods = cfg.strings("corr.methods")
    // ONE reduce-to-driver collect feeds all three coefficient matrices
    lazy val sample = SparkStage.collectNumericMatrix(df, cols, aggs.rows,
      cfg.long("corr.maxrows"))
    val matrices = methods.map {
      case "pearson" =>
        LocalStage.correlationMatrix("pearson", cols,
          LocalStage.pearsonFromMatrix(cols, sample), hasVariance)
      case "spearman" =>
        LocalStage.correlationMatrix("spearman", cols,
          LocalStage.spearmanFromMatrix(cols, sample), hasVariance)
      case "kendall" =>
        LocalStage.correlationMatrix("kendall", cols,
          LocalStage.kendallFromMatrix(cols, sample), hasVariance)
      case other =>
        throw new IllegalArgumentException(s"unknown correlation method: $other")
    }
    val insights = matrices.flatMap(m => Insights.highCorrelations(m, cfg))
    CorrelationIntermediates(cols, matrices, insights)
  }

  /** Row 0 of the matrix over `column +: others`. With no other numeric
    * column the matrix is empty, and each method gets an empty vector.
    */
  def vector(df: DataFrame, column: String, cfg: EdaConfig): CorrelationVectorIntermediates = {
    require(TypeDetector.typeOf(df, column) == ColumnType.Numerical,
      s"plot_correlation(df, col): '$column' must be numerical")
    val others = corrColumns(df, cfg).filterNot(_ == column)
    val sub = column +: others
    val aggs = SparkStage.columnAggregates(df, sub, Nil, withDuplicates = false)
    val m = matrixFromAggregates(df, sub, aggs, cfg)
    val vectors =
      if (m.matrices.isEmpty)
        cfg.strings("corr.methods").map(CorrelationVector(_, column, others, Array.empty[Double]))
      else m.matrices.map(mm => CorrelationVector(mm.method, column, others, mm.values(0).tail))
    CorrelationVectorIntermediates(column, others, vectors,
      m.insights.filter(_.columns.head == column))
  }

  def pair(df: DataFrame, c1: String, c2: String, cfg: EdaConfig): CorrelationPairIntermediates = {
    require(TypeDetector.typeOf(df, c1) == ColumnType.Numerical &&
            TypeDetector.typeOf(df, c2) == ColumnType.Numerical,
      s"plot_correlation(df, col1, col2): both columns must be numerical")
    val moments = SparkStage.pairwiseMoments(df, Seq((c1, c2)))((c1, c2))
    val (slope, intercept) = moments.regression
    val points = SparkStage.scatterSample(df, c1, c2, cfg.int("scatter.sample"))
    val scatter = ScatterPlot(c1, c2, points, slope, intercept, moments.pearson)

    // spearman/kendall locally on the collected (sampled) pair
    val sample = SparkStage.collectNumericMatrix(df, Seq(c1, c2),
      totalRows = moments.n, maxRows = cfg.long("corr.maxrows"))
    val coefficients = cfg.strings("corr.methods").map {
      case "pearson"  => "pearson" -> moments.pearson
      case "spearman" => "spearman" -> LocalStats.spearmanArrays(sample(0), sample(1))
      case "kendall"  => "kendall" -> LocalStats.kendallTauB(sample(0), sample(1))
      case other => throw new IllegalArgumentException(s"unknown correlation method: $other")
    }.toMap
    val t = cfg.double("insight.correlation.threshold")
    val insights = coefficients.toSeq.collect {
      case (m, v) if !v.isNaN && math.abs(v) > t =>
        Insight("high-correlation", Seq(c1, c2),
          f"$c1 and $c2 are highly correlated ($m = $v%.3f)", v)
    }
    CorrelationPairIntermediates(scatter, coefficients, insights)
  }
}
