package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.PerfbenchBus
import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.Render
import repro.core.ReportModel.Report

/** Benchmark entry point:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * One process, one `SparkSession` on `local[N]` (N = min(4, cores)).
  * Set-up starts the session and materializes the workload's tables three
  * times (the median counts), then warms up once by running the workload's
  * call sequence on small tables of the same column kinds. The timed region
  * repeats the workload's call sequence until `--seconds` have passed, and
  * checks every call's output.
  *
  * With `--trace 0` the last stdout line carries the end-to-end metrics.
  * With `--trace 1` passes alternate untraced and traced, starting and
  * ending untraced; a sweep calls the
  * entry points the workload does not use, once each; a layer replay calls
  * the layers under `Eda` directly; the last line carries the per-layer
  * metrics. A result file (and with tracing, a span file) is written to the
  * directory named by the `perfbench.out` system property.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  final case class Outcome(fn: String, args: Seq[String], seconds: Double, problems: Seq[String])

  private val SetupReps = 3
  private val ConfKeys = Seq("spark.sql.shuffle.partitions", "spark.sql.codegen.wholeStage",
    "spark.sql.adaptive.enabled")

  def parse(argv: Array[String]): Args = {
    require(argv.length % 2 == 0, s"expected --key value pairs, got ${argv.mkString(" ")}")
    val kv = argv.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = get("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    Args(get("workload"), get("seed").toLong, get("seconds").toInt, trace == "1")
  }

  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(p * s.size).toInt - 1))
  }

  private def startSession(cores: Int, tmp: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", tmp)
      .config("spark.sql.warehouse.dir", s"$tmp/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def materialize(df: DataFrame): DataFrame = {
    val cached = df.cache()
    cached.count()
    cached
  }

  private def tableSeed(seed: Long, i: Int): Long = seed * 1000 + i

  /** Makes one call, rendering its report to HTML inside the timing, then
    * checks the output outside the timing.
    */
  def runCall(tr: Tracer, call: Call, ref: Reference): (Outcome, Option[Report]) = {
    val t0 = System.nanoTime()
    try {
      val (report, html) = tr.span(s"eda.${call.fn}") {
        val r = call.run()
        (r, tr.span("html")(Render.toHtml(r)))
      }
      val secs = (System.nanoTime() - t0) / 1e9
      (Outcome(call.fn, call.args, secs, Checks.call(call.fn, call.args, report, html, ref)), Some(report))
    } catch {
      case NonFatal(e) =>
        (Outcome(call.fn, call.args, (System.nanoTime() - t0) / 1e9, Seq(s"threw $e")), None)
    }
  }

  private def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  def main(argv: Array[String]): Unit = {
    val code = try { run(parse(argv)); 0 } catch {
      case e: Throwable =>
        System.err.println(s"perfbench: ${e.getMessage}")
        e.printStackTrace()
        1
    }
    sys.exit(code)
  }

  def run(a: Args): Unit = {
    val w = Workload.byName(a.workload)
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val outDir = Paths.get(sys.props.getOrElse("perfbench.out", ".bench_build/perfbench/results"))
    val tmp = sys.props.getOrElse("perfbench.tmp", ".bench_build/perfbench/tmp")
    Files.createDirectories(outDir)

    // ---- set-up: session + tables (3 times, median), then one warm-up ----
    var spark: SparkSession = null
    var tables: Seq[(Shape, DataFrame)] = Nil
    val setupReps = (1 to SetupReps).map { _ =>
      if (spark != null) { tables.foreach(_._2.unpersist(blocking = true)); spark.stop() }
      val (s, sessionS) = timed(startSession(cores, tmp))
      spark = s
      val (tb, materializeS) = timed(w.shapes.zipWithIndex.map { case (sh, i) =>
        sh -> materialize(sh.generate(spark, tableSeed(a.seed, i)))
      })
      tables = tb
      (sessionS, materializeS)
    }
    val sc = spark.sparkContext
    val confsBefore = ConfKeys.map(k => k -> spark.conf.getOption(k).getOrElse("(unset)")).toMap
    val (_, warmupS) = timed(w.warmShapes.zipWithIndex.foreach { case (sh, i) =>
      val df = materialize(sh.generate(spark, tableSeed(a.seed, 100 + i)))
      w.calls(df).foreach(c => Render.toHtml(c.run()))
      df.unpersist(blocking = true)
    })
    val sessionS = median(setupReps.map(_._1))
    val materializeS = median(setupReps.map(_._2))
    val setupS = median(setupReps.map { case (s, m) => s + m }) + warmupS
    val work = tables.map { case (sh, df) => (sh, df, Reference.of(df)) }

    // ---- timed region ----
    val tr = new Tracer(sc, on = a.trace)
    val listener = new JobListener
    val outcomes = mutable.ArrayBuffer.empty[Outcome]
    val untracedS = mutable.ArrayBuffer.empty[Double]
    val tracedS = mutable.ArrayBuffer.empty[Double]
    val reportOf = mutable.Map.empty[String, Report] // last createReport per table, traced runs only
    val replays = mutable.ArrayBuffer.empty[(String, LayerReplay.Result, Seq[String])]
    def runOn(sh: Shape, ref: Reference)(call: Call): Outcome = {
      val (o, report) = runCall(tr, call, ref)
      if (a.trace && o.fn == "create_report") report.foreach(reportOf(sh.name) = _)
      o
    }
    def pass(): Seq[Outcome] = work.flatMap { case (sh, df, ref) => w.calls(df).map(runOn(sh, ref)) }

    var heapMb = 0.0
    // Passes repeat while another pass of the mean length so far still fits
    // in --seconds; the first pass always runs.
    val t0 = System.nanoTime()
    def another(passesS: Seq[Double]): Boolean =
      (System.nanoTime() - t0) / 1e9 + passesS.sum / passesS.size <= a.seconds
    if (!a.trace) {
      do {
        val (os, s) = timed(pass())
        outcomes ++= os; untracedS += s
      } while (another(untracedS.toSeq))
      heapMb = retainedHeapMb()
    } else tr.span(s"workload.${w.name}") {
      def untracedPass(): Unit = {
        tr.on = false
        val (os, s) = timed(pass())
        outcomes ++= os; untracedS += s
        tr.on = true
      }
      // untraced and traced passes alternate, starting and ending untraced,
      // so the JVM's warming trend does not bias the tracing overhead
      untracedPass()
      do {
        sc.addSparkListener(listener)
        val (os, s) = timed(tr.span("pass")(pass()))
        outcomes ++= os; tracedS += s
        PerfbenchBus.drain(sc)
        sc.removeSparkListener(listener)
        untracedPass()
      } while (another(untracedS.toSeq.map(_ * 2)))
      sc.addSparkListener(listener)
      val (sh0, df0, ref0) = work.head
      val used = w.calls(df0).map(_.fn).toSet
      tr.span("sweep") {
        outcomes ++= Workload.sweep(df0).filterNot(c => used(c.fn)).map(runOn(sh0, ref0))
      }
      tr.span("replay") {
        work.foreach { case (sh, df, _) =>
          val r = tr.span(s"replay.${sh.name}")(LayerReplay.run(tr, df))
          val problems = reportOf.get(sh.name).map(Checks.replay(_, r.matrices, r.bar))
            .getOrElse(Seq("no createReport result to compare with"))
          replays += ((sh.name, r, problems))
        }
      }
      PerfbenchBus.drain(sc)
    }
    val confsTimed = ConfKeys.map(k => k -> spark.conf.getOption(k).getOrElse("(unset)")).toMap

    // ---- result ----
    val replayProblems = replays.flatMap { case (t, _, ps) => ps.map(p => s"replay $t: $p") }
    val attempted = outcomes.size + replays.size
    val failed = outcomes.count(_.problems.nonEmpty) + replays.count(_._3.nonEmpty)
    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    def put(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

    if (!a.trace) {
      val lat = outcomes.map(_.seconds).toSeq
      put("setup_s", setupS, "s")
      put("report_s", median(untracedS.toSeq), "s")
      put("call_p50_s", percentile(lat, 0.5), "s")
      put("call_p70_s", percentile(lat, 0.7), "s")
      put("ok_frac", (attempted - failed).toDouble / attempted, "frac")
      put("heap_retained_mb", heapMb, "MB")
    } else {
      TraceMetrics.collect(tr, listener, cores, replays.map(_._2).toSeq, put)
      put("setup.session_s", sessionS, "s")
      put("setup.materialize_s", materializeS, "s")
      put("setup.warmup_s", warmupS, "s")
      put("trace.overhead_frac", tracedS.sum / tracedS.size / (untracedS.sum / untracedS.size) - 1, "frac")
    }

    val result = mutable.LinkedHashMap[String, Any](
      "correct" -> (failed == 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> mutable.LinkedHashMap("value" -> v, "unit" -> u) })

    val provenance = mutable.LinkedHashMap[String, Any](
      "workload" -> w.name, "seed" -> a.seed, "seconds" -> a.seconds, "trace" -> a.trace,
      "git_sha" -> sys.props.getOrElse("perfbench.git_sha", "unknown"),
      "source_sha256" -> sys.props.getOrElse("perfbench.source_sha256", "unknown"),
      "cores" -> cores, "available_processors" -> Runtime.getRuntime.availableProcessors,
      "memory_total_bytes" -> ManagementFactory.getOperatingSystemMXBean
        .asInstanceOf[com.sun.management.OperatingSystemMXBean].getTotalMemorySize,
      "max_heap_bytes" -> Runtime.getRuntime.maxMemory,
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
      "spark" -> spark.version, "scala" -> scala.util.Properties.versionNumberString,
      "master" -> sc.master,
      "confs_at_start" -> confsBefore, "confs_in_timed_region" -> confsTimed)

    val detail = mutable.LinkedHashMap[String, Any](
      "provenance" -> provenance,
      "tables" -> work.map { case (sh, _, ref) =>
        mutable.LinkedHashMap("name" -> sh.name, "rows" -> ref.rows, "columns" -> ref.columns.size) },
      "setup_reps_s" -> setupReps.map { case (s, m) => Seq(s, m) },
      "warmup_s" -> warmupS,
      "untraced_pass_s" -> untracedS, "traced_pass_s" -> tracedS,
      "calls" -> outcomes.size,
      "call_s_by_fn" -> outcomes.groupBy(_.fn).map { case (fn, os) => fn -> os.map(_.seconds) },
      "problems" -> (outcomes.flatMap(o => o.problems.map(p => s"${o.fn}(${o.args.mkString(", ")}): $p")) ++
        replayProblems).take(50),
      "result" -> result)
    val stem = s"${w.name}_seed${a.seed}_trace${if (a.trace) 1 else 0}"
    write(outDir.resolve(s"$stem.json"), Json(detail))
    if (a.trace) write(outDir.resolve(s"$stem.spans.json"), TraceMetrics.spansJson(tr, listener))

    spark.stop()
    println(s"provenance: ${Json(provenance)}")
    if (failed > 0) println(s"problems: ${Json(detail("problems"))}")
    println(Json(result))
  }

  private def write(p: Path, s: String): Unit =
    Files.write(p, s.getBytes(StandardCharsets.UTF_8))
}
