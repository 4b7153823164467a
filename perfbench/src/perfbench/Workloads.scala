package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{Eda, TypeDetector}
import repro.core.ReportModel.Report
import repro.data.EdaData

/** Column shape of one generated table: `rows` × (`nNum` numeric +
  * `nCat` categorical), from `EdaData.dataset`.
  */
final case class Shape(name: String, rows: Long, nNum: Int, nCat: Int) {
  def generate(spark: SparkSession, seed: Long): DataFrame =
    EdaData.dataset(spark, rows, nNum, nCat, seed)
}

/** One call of the public API: `fn` names the entry point (the `eda.<fn>`
  * metrics), `run` makes the call and returns its report.
  */
final case class Call(fn: String, args: Seq[String], run: () => Report)

/** A workload: the tables it runs on, the small tables it warms up on, and
  * the closed-loop call sequence it makes on each table. A single client
  * makes the calls one after another, waiting for each result.
  */
final case class Workload(name: String, shapes: Seq[Shape], warmShapes: Seq[Shape],
                          calls: DataFrame => Seq[Call])

object Workload {

  val EntryPoints: Seq[String] = Seq("plot", "plot_col", "plot_pair", "corr", "corr_col",
    "corr_pair", "missing", "missing_col", "missing_pair", "create_report")

  val all: Seq[Workload] = Seq(
    // Table 2's column-heavy shapes (credit: 25 numeric; basketball: 21
    // numeric + 10 categorical), with 8 000 rows instead of 30 000 and
    // 53 000 so a run fits its time budget. The warm-up tables have the same
    // columns and 500 rows: per-call costs dominate a report at this width.
    Workload("report_wide",
      Seq(Shape("credit", 8000, 25, 0), Shape("basketball", 8000, 21, 10)),
      Seq(Shape("credit_warm", 500, 25, 0), Shape("basketball_warm", 500, 21, 10)),
      df => Seq(createReport(df))),
    // Figure 5's fine-grained calls on titanic's 891 rows, with 4 numeric +
    // 3 categorical columns instead of 7 + 5 so a pass fits its time budget.
    // The warm-up table is the same shape and size (another seed), which
    // made per-call latencies steadier than a narrower warm-up table.
    Workload("interactive_session",
      Seq(Shape("titanic", 891, 4, 3)),
      Seq(Shape("titanic_warm", 891, 4, 3)),
      figure5Mix),
  )

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))

  def createReport(df: DataFrame): Call =
    Call("create_report", Nil, () => Eda.createReport(df))

  private def adjacent(cols: Seq[String]): Seq[(String, String)] =
    cols.zip(cols.drop(1))

  /** plot(df), plot(df, c) per column, plot(df, a, b) per adjacent pair,
    * plotCorrelation(df), plotCorrelation(df, c) per numeric column,
    * plotMissing(df), plotMissing(df, c) per column, plotMissing(df, a, b)
    * per adjacent pair.
    */
  def figure5Mix(df: DataFrame): Seq[Call] = {
    val cols = df.columns.toSeq
    val nums = TypeDetector.numericColumns(df)
    Seq(Call("plot", Nil, () => Eda.plot(df))) ++
      cols.map(c => Call("plot_col", Seq(c), () => Eda.plot(df, c))) ++
      adjacent(cols).map { case (a, b) => Call("plot_pair", Seq(a, b), () => Eda.plot(df, a, b)) } ++
      Seq(Call("corr", Nil, () => Eda.plotCorrelation(df))) ++
      nums.map(c => Call("corr_col", Seq(c), () => Eda.plotCorrelation(df, c))) ++
      Seq(Call("missing", Nil, () => Eda.plotMissing(df))) ++
      cols.map(c => Call("missing_col", Seq(c), () => Eda.plotMissing(df, c))) ++
      adjacent(cols).map { case (a, b) =>
        Call("missing_pair", Seq(a, b), () => Eda.plotMissing(df, a, b)) }
  }

  /** One call of every entry point, on the first columns of `df`. */
  def sweep(df: DataFrame): Seq[Call] = {
    val Seq(a, b) = df.columns.toSeq.take(2)
    val Seq(x, y) = TypeDetector.numericColumns(df).take(2)
    Seq(
      Call("plot", Nil, () => Eda.plot(df)),
      Call("plot_col", Seq(a), () => Eda.plot(df, a)),
      Call("plot_pair", Seq(a, b), () => Eda.plot(df, a, b)),
      Call("corr", Nil, () => Eda.plotCorrelation(df)),
      Call("corr_col", Seq(x), () => Eda.plotCorrelation(df, x)),
      Call("corr_pair", Seq(x, y), () => Eda.plotCorrelation(df, x, y)),
      Call("missing", Nil, () => Eda.plotMissing(df)),
      Call("missing_col", Seq(a), () => Eda.plotMissing(df, a)),
      Call("missing_pair", Seq(a, b), () => Eda.plotMissing(df, a, b)),
      createReport(df))
  }
}
