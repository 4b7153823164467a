package perfbench

import scala.collection.mutable

/** Per-layer metrics of a traced run, derived from its spans and the job
  * listener's counters.
  *
  * - `eda.<fn>`: spans of the public calls (traced passes and sweep).
  * - `spark.*`, `driver.gap_s`: the traced passes, per pass.
  * - `sparkstage.<r>`, `local.<fn>`, `render.*`: the layer replay, summed
  *   over the workload's tables.
  *
  * `slot_util` is task run time / (wall time × cores); `cpu_util` is
  * process CPU time / (wall time × cores).
  */
object TraceMetrics {

  type Put = (String, Double, String) => Unit

  def collect(tr: Tracer, jl: JobListener, cores: Int,
              replays: Seq[LayerReplay.Result], put: Put): Unit = {
    val spans = tr.spans
    def secs(ss: Seq[Span]): Double = ss.map(_.dur).sum / 1e9
    def ids(ss: Seq[Span]): Set[Long] = ss.map(_.id).toSet
    def util(busyS: Double, workS: Double): Double = if (busyS > 0) workS / (busyS * cores) else 0.0

    Workload.EntryPoints.foreach { fn =>
      val ss = tr.named(s"eda.$fn")
      val n = math.max(1, ss.size)
      put(s"eda.$fn.busy_s", secs(ss) / n, "s")
      put(s"eda.$fn.jobs_per_call", jl.totals(ids(ss)).jobs.toDouble / n, "jobs/call")
    }

    LayerReplay.Reductions.foreach { r =>
      val ss = tr.named(s"sparkstage.$r")
      val t = jl.totals(ids(ss))
      put(s"sparkstage.$r.busy_s", secs(ss), "s")
      put(s"sparkstage.$r.jobs", t.jobs, "count")
      put(s"sparkstage.$r.slot_util", util(secs(ss), t.taskRunS), "frac")
      put(s"sparkstage.$r.shuffle_bytes", t.shuffleBytes.toDouble, "bytes")
      put(s"sparkstage.$r.result_bytes", t.resultBytes.toDouble, "bytes")
    }

    val passes = tr.named("pass")
    val passIds = ids(passes)
    val calls = spans.filter(s => s.name.startsWith("eda.") && passIds(s.traceId))
    val n = math.max(1, passes.size).toDouble
    val t = jl.totals(ids(calls))
    put("spark.jobs", t.jobs / n, "count")
    put("spark.stages", t.stages / n, "count")
    put("spark.tasks", t.tasks / n, "count")
    put("spark.task_run_s", t.taskRunS / n, "s")
    put("spark.task_gc_s", t.taskGcS / n, "s")
    put("spark.shuffle_bytes", t.shuffleBytes / n, "bytes")
    put("spark.result_bytes", t.resultBytes / n, "bytes")
    put("spark.slot_util", util(secs(passes), t.taskRunS), "frac")
    put("driver.gap_s", calls.map(gapNanos(tr, jl, _)).sum / 1e9 / n, "s")

    LayerReplay.LocalFns.foreach { fn =>
      val ss = tr.named(s"local.$fn")
      put(s"local.$fn.busy_s", secs(ss), "s")
      put(s"local.$fn.cpu_util", util(secs(ss), ss.map(_.cpu).sum / 1e9), "frac")
    }
    put("local.corr_pairs", replays.map(_.corrPairs).sum.toDouble, "count")
    put("local.corr_rows", replays.map(_.corrRows).sum.toDouble, "count")
    put("render.report_s", secs(tr.named("render.report")), "s")
    put("render.html_s", secs(tr.named("render.html")), "s")
    put("render.html_bytes", replays.map(_.htmlBytes).sum.toDouble, "bytes")
  }

  /** Time inside a call span during which none of its Spark jobs ran. */
  private def gapNanos(tr: Tracer, jl: JobListener, s: Span): Long = {
    val intervals = jl.jobIntervals.filter(_.span == s.id)
      .map(j => (math.max(s.start, tr.fromMillis(j.startMs)), math.min(s.end, tr.fromMillis(j.endMs))))
      .filter { case (a, b) => b > a }
      .sortBy(_._1)
    var covered = 0L
    var reach = s.start
    intervals.foreach { case (a, b) =>
      val from = math.max(a, reach)
      if (b > from) { covered += b - from; reach = b }
    }
    s.dur - covered
  }

  /** Spans plus one `spark.job` span per job, under the span that submitted it. */
  def spansJson(tr: Tracer, jl: JobListener): String = {
    val traceOf = tr.spans.map(s => s.id -> s.traceId).toMap
    def row(id: String, parent: Long, trace: Long, name: String, start: Long, end: Long) =
      mutable.LinkedHashMap[String, Any]("id" -> id, "parent" -> parent, "trace" -> trace,
        "name" -> name, "start_ns" -> start, "end_ns" -> end)
    val spans = tr.spans.sortBy(_.start).map(s =>
      row(s.id.toString, s.parent, s.traceId, s.name, s.start, s.end) += ("cpu_ns" -> s.cpu))
    val jobs = jl.jobIntervals.filter(j => traceOf.contains(j.span)).map(j =>
      row(s"job-${j.id}", j.span, traceOf(j.span), "spark.job", tr.fromMillis(j.startMs), tr.fromMillis(j.endMs)))
    Json(spans ++ jobs)
  }
}
