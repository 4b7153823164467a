package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType

import repro.core.{Eda, EdaConfig, LocalStage, Render, SparkStage, TypeDetector}
import repro.core.Intermediates._
import repro.stats.Dendrogram

/** Calls the layers under `Eda` directly, in the order a report uses them,
  * each inside its own span: the `SparkStage` reductions (`sparkstage.<r>`),
  * the local stage and `stats` (`local.<fn>`), and `Render`
  * (`render.report`, `render.html`). Inputs come from `columnAggregates`,
  * as in `createReport`. The missing-impact reductions of
  * `plotMissing(df, c)` run last, on the first column with missing values.
  */
object LayerReplay {

  final case class Result(matrices: Seq[CorrelationMatrix], bar: MissingBarChart,
                          corrPairs: Long, corrRows: Long, htmlBytes: Long)

  val Reductions: Seq[String] = Seq("columnAggregates", "histograms", "frequencies",
    "outlierCounts", "grid2d", "collectNumericMatrix", "missingSpectrum", "nullityMoments",
    "pairwiseMoments", "impactHistograms", "impactFrequencies")

  val LocalFns: Seq[String] = Seq("pearsonFromMatrix", "spearmanFromMatrix", "kendallFromMatrix",
    "kdeCurve", "qqPlot", "nullityDistances", "Dendrogram.singleLinkage")

  def run(tr: Tracer, df: DataFrame): Result = {
    val cfg = EdaConfig.default
    def stage[T](r: String)(body: => T): T = tr.span(s"sparkstage.$r")(body)
    def local[T](fn: String)(body: => T): T = tr.span(s"local.$fn")(body)

    val cols = df.columns.toSeq
    val numCols = TypeDetector.numericColumns(df)
    val catCols = TypeDetector.categoricalColumns(df)

    val aggs = stage("columnAggregates")(SparkStage.columnAggregates(df, numCols, catCols))
    val withData = numCols.map(aggs.numeric).filter(_.count > 0)
    val names = withData.map(_.name)
    val mins = withData.map(_.min)
    val maxs = withData.map(_.max)
    val bins = cfg.int("hist.bins")

    val hists = stage("histograms")(SparkStage.histograms(df, names, mins, maxs, bins))
    stage("frequencies")(SparkStage.frequencies(df, catCols, cfg.int("freq.maxdistinct")))
    stage("outlierCounts")(SparkStage.outlierCounts(df, withData.map { s =>
      val (lo, hi) = LocalStage.fences(s); (s.name, lo, hi)
    }))
    local("kdeCurve")(withData.foreach(s =>
      LocalStage.kdeCurve(s, hists(s.name), cfg.int("hist.gridpoints"))))
    local("qqPlot")(withData.foreach(s => LocalStage.qqPlot(s, cfg.int("qq.points"))))

    val gridPairs = (for (i <- withData.indices; j <- i + 1 until withData.size)
      yield (withData(i), withData(j))).take(cfg.int("report.interactions"))
    stage("grid2d")(gridPairs.foreach { case (a, b) =>
      SparkStage.grid2d(df, a.name, b.name, a.min, a.max, b.min, b.max,
        cfg.int("grid2d.xbins"), cfg.int("grid2d.ybins"))
    })

    // correlations: one collect feeds the three local coefficient stages
    val corrCols = numCols.take(cfg.int("corr.maxcols"))
    val sample = stage("collectNumericMatrix")(
      SparkStage.collectNumericMatrix(df, corrCols, aggs.rows, cfg.long("corr.maxrows")))
    val hasVariance = (c: String) => {
      val s = aggs.numeric(c); s.count > 1 && !s.std.isNaN && s.std > 0
    }
    val methods = cfg.strings("corr.methods")
    val matrices = methods.map { m =>
      val fn = s"${m}FromMatrix"
      val coeff = local(fn)(m match {
        case "pearson" => LocalStage.pearsonFromMatrix(corrCols, sample)
        case "spearman" => LocalStage.spearmanFromMatrix(corrCols, sample)
        case "kendall" => LocalStage.kendallFromMatrix(corrCols, sample)
      })
      LocalStage.correlationMatrix(m, corrCols, coeff, hasVariance)
    }
    val corrPairs = corrCols.size.toLong * (corrCols.size - 1) / 2
    // the exact moment agg of plotCorrelation(df, a, b), on the interaction pairs
    stage("pairwiseMoments")(SparkStage.pairwiseMoments(df, gridPairs.map { case (a, b) => (a.name, b.name) }))

    // missing values: the bar comes from pass 1's missing counts
    val missingOf = cols.map { c =>
      c -> aggs.numeric.get(c).map(_.missing).getOrElse(aggs.categorical(c).missing)
    }.toMap
    val bar = MissingBarChart(cols, cols.map(missingOf), aggs.rows)
    stage("missingSpectrum")(SparkStage.missingSpectrum(df, cols, cfg.int("spectrum.bins")))
    val withMissing = cols.filter(missingOf(_) > 0)
    val nullityCols = if (withMissing.size >= 2) withMissing else cols
    val moments = stage("nullityMoments")(SparkStage.nullityMoments(df, nullityCols))
    val distances = local("nullityDistances")(
      LocalStage.nullityDistances(nullityCols, aggs.rows, moments))
    local("Dendrogram.singleLinkage")(Dendrogram.singleLinkage(nullityCols, distances))

    // plotMissing(df, c): distributions before/after dropping c's missing rows
    val c1 = withMissing.headOption.getOrElse(cols.head)
    val keep =
      if (numCols.contains(c1)) { val x = col(c1).cast(DoubleType); !(x.isNull || isnan(x)) }
      else col(c1).isNotNull
    val others = withData.filterNot(_.name == c1)
    stage("impactHistograms")(SparkStage.impactHistograms(df, others.map(_.name),
      others.map(_.min), others.map(_.max), bins, keep))
    stage("impactFrequencies")(SparkStage.impactFrequencies(df, catCols.filterNot(_ == c1),
      cfg.int("freq.maxdistinct"), keep))

    // render: the report model, then HTML
    val intermediates = tr.span("replay.intermediates")(Eda.computeReportIntermediates(df, cfg))
    val report = tr.span("render.report")(Render.fullReport(intermediates, cfg))
    val html = tr.span("render.html")(Render.toHtml(report))

    Result(matrices, bar, corrPairs * methods.size, sample.headOption.map(_.length.toLong).getOrElse(0L),
      html.length.toLong)
  }
}
