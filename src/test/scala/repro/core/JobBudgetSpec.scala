package repro.core

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit

import repro.SparkSpec
import repro.data.EdaData

/** Spark jobs per entry point: the paper's "O(1) actions per task" (§5) as
  * pinned budgets. A budget may only go down.
  */
class JobBudgetSpec extends SparkSpec {

  /** Spark jobs started while `body` runs. */
  private def jobsOf(body: => Any): Int = {
    val sc = spark.sparkContext
    ListenerBusDrain(sc)
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try { body; ListenerBusDrain(sc); jobs.get }
    finally sc.removeSparkListener(listener)
  }

  // One partition, so that a `limit` collect never scans a second one and
  // the counts do not depend on the number of cores.
  private def table(nNumeric: Int): DataFrame =
    EdaData.dataset(spark, 400, nNumeric, 3).coalesce(1)

  private lazy val df = table(5).withColumn("dead", lit(null).cast("double"))

  private val budgets: Seq[(String, DataFrame => Any, Int)] = Seq(
    ("plot(df)", Eda.plot(_), 7),
    ("plot(df, num)", Eda.plot(_, "num_0"), 5),
    ("plot(df, all-null num)", Eda.plot(_, "dead"), 3),
    ("plot(df, cat)", Eda.plot(_, "cat_0"), 4),
    ("plot(df, num, num)", Eda.plot(_, "num_0", "num_1"), 7),
    ("plot(df, cat, num)", Eda.plot(_, "cat_0", "num_1"), 5),
    ("plot(df, cat, cat)", Eda.plot(_, "cat_0", "cat_1"), 1),
    ("plotCorrelation(df)", Eda.plotCorrelation(_), 4),
    ("plotCorrelation(df, num)", Eda.plotCorrelation(_, "num_0"), 4),
    ("plotCorrelation(df, num, num)", Eda.plotCorrelation(_, "num_0", "num_1"), 3),
    ("plotMissing(df)", Eda.plotMissing(_), 3),
    ("plotMissing(df, num)", Eda.plotMissing(_, "num_0"), 7),
    ("plotMissing(df, num, num)", Eda.plotMissing(_, "num_0", "num_1"), 6),
    ("plotMissing(df, num, cat)", Eda.plotMissing(_, "num_0", "cat_0"), 2),
    ("createReport(df)", Eda.createReport(_), 16),
  )

  budgets.foreach { case (name, call, budget) =>
    test(s"$name runs $budget Spark jobs") {
      assert(jobsOf(call(df)) == budget)
    }
  }

  test("createReport runs as many jobs at 30 numeric columns as at 5") {
    val narrow = jobsOf(Eda.createReport(table(5)))
    val wide = jobsOf(Eda.createReport(table(30)))
    assert(wide == narrow)
  }
}
