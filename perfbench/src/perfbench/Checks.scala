package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType

import repro.core.Intermediates._
import repro.core.ReportModel._
import repro.core.TypeDetector

/** Reference values of one table, computed at set-up by a single Spark agg
  * written here, independently of the library: the row count, the missing
  * count of every column (null, or NaN for numeric columns) and the finite
  * count of every numeric column.
  */
final case class Reference(rows: Long, columns: Seq[String], numeric: Seq[String],
                           missing: Map[String, Long], finite: Map[String, Long]) {
  def present(c: String): Long = rows - missing(c)
}

object Reference {
  def of(df: DataFrame): Reference = {
    val cols = df.columns.toSeq
    val numeric = TypeDetector.numericColumns(df)
    val exprs = count(lit(1)) +: cols.flatMap { c =>
      if (numeric.contains(c)) {
        val x = col(c).cast(DoubleType)
        Seq(count(when(x.isNull || isnan(x), 1)),
          count(when(x.isNotNull && !isnan(x) && abs(x) =!= Double.PositiveInfinity, 1)))
      } else Seq(count(when(col(c).isNull, 1)))
    }
    val row = df.agg(exprs.head, exprs.tail: _*).head()
    var i = 1
    val missing = Map.newBuilder[String, Long]
    val finite = Map.newBuilder[String, Long]
    cols.foreach { c =>
      missing += c -> row.getLong(i); i += 1
      if (numeric.contains(c)) { finite += c -> row.getLong(i); i += 1 }
    }
    Reference(row.getLong(0), cols, numeric, missing.result(), finite.result())
  }
}

/** Output checks: every call's report against the table's `Reference`, and
  * the layer replay's intermediates against the ones `createReport` built.
  * Each check returns the list of problems found; empty means correct.
  */
object Checks {

  private val Methods = Seq("pearson", "spearman", "kendall")

  /** Charts each entry point must produce, by the type of their data. */
  private def required(fn: String, args: Seq[String], ref: Reference): Seq[(String, Any => Boolean)] = {
    def isHist(d: Any) = d.isInstanceOf[Histogram]
    def isNumeric(c: String) = ref.numeric.contains(c)
    fn match {
      case "create_report" => Seq("histogram" -> isHist, "missing bar" -> (_.isInstanceOf[MissingBarChart]),
        "correlation matrix" -> (_.isInstanceOf[CorrelationMatrix]))
      case "plot" => Seq("histogram" -> isHist)
      case "plot_col" if isNumeric(args.head) => Seq("histogram" -> isHist)
      case "plot_col" => Seq("bar chart" -> (_.isInstanceOf[CategoryFrequencies]))
      case "corr" => Seq("correlation matrix" -> (_.isInstanceOf[CorrelationMatrix]))
      case "corr_col" => Seq("correlation vector" -> (_.isInstanceOf[CorrelationVector]))
      case "corr_pair" => Seq("scatter plot" -> (_.isInstanceOf[ScatterPlot]))
      case "missing" => Seq("missing bar" -> (_.isInstanceOf[MissingBarChart]),
        "missing spectrum" -> (_.isInstanceOf[MissingSpectrum]))
      case "missing_pair" if isNumeric(args(1)) => Seq("impact histogram" -> (_.isInstanceOf[ImpactHistogram]))
      case _ => Nil
    }
  }

  def call(fn: String, args: Seq[String], report: Report, html: String, ref: Reference): Seq[String] = {
    val problems = Seq.newBuilder[String]
    def expect(ok: Boolean, what: => String): Unit = if (!ok) problems += what

    expect(report.tabs.nonEmpty, "report has no tabs")
    report.tabs.foreach(t => expect(t.components.nonEmpty, s"tab '${t.name}' is empty"))
    expect(html.startsWith("<!DOCTYPE html>") && html.endsWith("</html>"), "HTML is not a complete page")
    val data = report.charts.map(_.data)
    required(fn, args, ref).foreach { case (what, is) => expect(data.exists(is), s"no $what") }

    val numericCols = ref.numeric
    data.foreach {
      case h: Histogram =>
        expect(h.total == ref.finite(h.column), s"histogram of ${h.column} totals ${h.total}, expected ${ref.finite(h.column)}")
      case f: CategoryFrequencies =>
        expect(f.totalNonNull == ref.present(f.column),
          s"frequencies of ${f.column} total ${f.totalNonNull}, expected ${ref.present(f.column)}")
      case b: MissingBarChart =>
        expect(b.totalRows == ref.rows && b.columns == ref.columns &&
          b.missingCounts == ref.columns.map(ref.missing), s"missing bar $b differs from the reference")
      case s: MissingSpectrum =>
        val n = s.buckets.map { case (lo, hi) => hi - lo + 1 }.sum
        expect(n == ref.rows, s"missing spectrum covers $n rows, expected ${ref.rows}")
      case h: ImpactHistogram =>
        expect(h.before.sum == ref.finite(h.column) && h.after.sum <= h.before.sum,
          s"impact histogram of ${h.column} totals ${h.before.sum}/${h.after.sum}, expected ${ref.finite(h.column)}")
      case m: CorrelationMatrix if Methods.contains(m.method) =>
        expect(m.columns == numericCols, s"${m.method} matrix over ${m.columns}, expected $numericCols")
        expect(m.values.length == m.columns.size && m.values.forall(_.length == m.columns.size),
          s"${m.method} matrix is not square")
        expect(m.values.flatten.forall(inRange), s"${m.method} matrix has values outside [-1, 1]")
      case v: CorrelationVector =>
        expect(v.others.size == numericCols.size - 1 && v.values.length == v.others.size,
          s"${v.method} vector of ${v.column} has ${v.values.length} values")
        expect(v.values.forall(inRange), s"${v.method} vector has values outside [-1, 1]")
      case _ => ()
    }
    report.tabs.flatMap(_.components).foreach {
      case t: StatsTable if t.title == "Dataset statistics" =>
        val rows = t.rows.toMap
        val missingCells = ref.missing.values.sum
        expect(rows.get("Number of rows").contains(ref.rows.toString), s"dataset rows ${rows.get("Number of rows")}")
        expect(rows.get("Missing cells").exists(_.startsWith(s"$missingCells ")),
          s"dataset missing cells ${rows.get("Missing cells")}, expected $missingCells")
      case t: StatsTable if t.title == "Impact" =>
        t.rows.foreach {
          case ("Rows", v) => expect(v == ref.rows.toString, s"impact rows $v, expected ${ref.rows}")
          case (k, v) if k.startsWith("Rows with ") && k.endsWith(" present") =>
            val c = k.stripPrefix("Rows with ").stripSuffix(" present")
            expect(v == ref.present(c).toString, s"rows with $c present: $v, expected ${ref.present(c)}")
          case _ => ()
        }
      case _ => ()
    }
    problems.result()
  }

  private def inRange(v: Double): Boolean = v.isNaN || math.abs(v) <= 1.0 + 1e-9

  private def sameValue(a: Double, b: Double): Boolean =
    (a.isNaN && b.isNaN) || math.abs(a - b) <= 1e-12

  /** The replay must rebuild exactly the correlation matrices and missing
    * bar that `createReport` put in its report, so that it times the same work.
    */
  def replay(report: Report, matrices: Seq[CorrelationMatrix], bar: MissingBarChart): Seq[String] = {
    val data = report.charts.map(_.data)
    val fromReport = data.collect { case m: CorrelationMatrix if Methods.contains(m.method) => m }
    val problems = Seq.newBuilder[String]
    if (fromReport.map(_.method) != matrices.map(_.method))
      problems += s"replay methods ${matrices.map(_.method)} vs report ${fromReport.map(_.method)}"
    fromReport.zip(matrices).foreach { case (r, p) =>
      val same = r.columns == p.columns && r.values.length == p.values.length &&
        r.values.zip(p.values).forall { case (x, y) =>
          x.length == y.length && x.zip(y).forall { case (u, v) => sameValue(u, v) } }
      if (!same) problems += s"replay ${p.method} matrix differs from the report's"
    }
    data.collectFirst { case b: MissingBarChart => b } match {
      case Some(b) if b == bar => ()
      case other => problems += s"replay missing bar $bar vs report $other"
    }
    problems.result()
  }
}
