package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.Intermediates._

/** Univariate task — plot(df, col1) (Figure 2, row 2).
  *
  * Numerical: column statistics, histogram, KDE plot, normal Q-Q plot, box
  * plot. The quantile grid from pass 1 is computed once and shared by the
  * stats table, the box plot, and the Q-Q plot; the histogram reduction is
  * shared by the histogram plot, the KDE, and the uniformity insight — the
  * paper's computation-sharing optimization.
  *
  * Categorical: column statistics, bar chart, pie chart, word cloud / word
  * frequencies (the bar and pie charts share one frequency reduction).
  */
object Univariate {

  sealed trait UnivariateIntermediates { def insights: Seq[Insight] }

  final case class NumericUnivariate(
      stats: NumericStats,
      histogram: Histogram,
      kde: KdeCurve,
      qq: QQPlot,
      box: BoxPlot,
      insights: Seq[Insight]) extends UnivariateIntermediates

  final case class CategoricalUnivariate(
      stats: CategoricalStats,
      frequencies: CategoryFrequencies,
      words: WordFrequencies,
      insights: Seq[Insight]) extends UnivariateIntermediates

  def compute(df: DataFrame, column: String, cfg: EdaConfig): UnivariateIntermediates =
    TypeDetector.typeOf(df, column) match {
      case ColumnType.Numerical   => numeric(df, column, cfg)
      case ColumnType.Categorical => categorical(df, column, cfg)
    }

  def numeric(df: DataFrame, column: String, cfg: EdaConfig): NumericUnivariate = {
    val aggs = SparkStage.columnAggregates(df, Seq(column), Nil, withDuplicates = false)
    val s = aggs.numeric(column)
    // an all-null column needs neither a histogram nor an outlier job
    if (s.count == 0) return fromStats(s, cfg, Histogram.empty(column), 0L)
    val hist = SparkStage.histograms(df, Seq(column), Seq(s.min), Seq(s.max),
      cfg.int("hist.bins"))(column)
    val (lo, hi) = LocalStage.fences(s)
    fromStats(s, cfg, hist, SparkStage.outlierCounts(df, Seq((column, lo, hi)))(column))
  }

  /** The local half of the numeric task: plots and insights from pass-1
    * stats, the column's histogram and its outlier count.
    */
  def fromStats(s: NumericStats, cfg: EdaConfig, hist: Histogram,
                outliers: Long): NumericUnivariate = {
    val kde = LocalStage.kdeCurve(s, hist, cfg.int("hist.gridpoints"))
    val qq = LocalStage.qqPlot(s, cfg.int("qq.points"))
    val box = LocalStage.boxPlot(s, outliers)
    val insights = Insights.numeric(s, Some(hist), outliers, cfg)
    NumericUnivariate(s, hist, kde, qq, box, insights)
  }

  def categorical(df: DataFrame, column: String, cfg: EdaConfig): CategoricalUnivariate = {
    val aggs = SparkStage.columnAggregates(df, Nil, Seq(column), withDuplicates = false)
    fromCatStats(aggs.categorical(column), cfg,
      SparkStage.frequencies(df, Seq(column), cfg.int("freq.maxdistinct"))(column),
      SparkStage.wordFrequencies(df, column, cfg.int("wordfreq.topk")))
  }

  /** The local half of the categorical task, from pass-1 stats, the value
    * counts and the word frequencies (createReport passes empty ones: the
    * profile report has no word clouds).
    */
  def fromCatStats(s: CategoricalStats, cfg: EdaConfig, rawFreqs: Seq[(String, Long)],
                   words: WordFrequencies): CategoricalUnivariate = {
    val freq = CategoryFrequencies(s.name, rawFreqs.take(cfg.int("bar.topk")), s.distinct, s.count)
    CategoricalUnivariate(s, freq, words, Insights.categorical(s, cfg))
  }
}
