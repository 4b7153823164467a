package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One recorded span. Times are nanoseconds since the tracer started;
  * `parent` is 0 for a root span. Spans of one pass or one replay share a
  * `traceId` (the id of that pass or replay span).
  */
final case class Span(id: Long, parent: Long, traceId: Long, name: String,
                      start: Long, end: Long, cpu: Long) {
  def dur: Long = end - start
}

/** In-memory span recorder, written out when the run ends.
  *
  * Each open span's id is set as the Spark local property
  * `Tracer.SpanProperty` on the calling thread, so the jobs a call submits
  * carry the id of the innermost span around them. While `on` is false
  * (untraced runs, and the untraced passes of a traced run), `span` only
  * runs its body.
  */
final class Tracer(sc: SparkContext, var on: Boolean) {
  val startNanos: Long = System.nanoTime()
  val startMillis: Long = System.currentTimeMillis()

  private val done = mutable.ArrayBuffer.empty[Span]
  private var stack: List[(Long, Long)] = Nil // (span id, trace id)
  private var nextId = 1L

  def now: Long = System.nanoTime() - startNanos

  /** Wall-clock milliseconds (Spark event time) to tracer nanoseconds. */
  def fromMillis(ms: Long): Long = (ms - startMillis) * 1000000L

  def spans: Seq[Span] = done.toSeq

  def named(name: String): Seq[Span] = done.filter(_.name == name).toSeq

  def span[T](name: String)(body: => T): T = if (!on) body else {
    val id = nextId; nextId += 1
    val parent = stack.headOption.map(_._1).getOrElse(0L)
    val traceId = stack match {
      case Nil | _ :: Nil => id // the root and its children each start a trace
      case (_, t) :: _ => t
    }
    stack = (id, traceId) :: stack
    sc.setLocalProperty(Tracer.SpanProperty, id.toString)
    val t0 = now
    val c0 = Tracer.processCpuNanos()
    try body
    finally {
      done += Span(id, parent, traceId, name, t0, now, Tracer.processCpuNanos() - c0)
      stack = stack.tail
      sc.setLocalProperty(Tracer.SpanProperty, stack.headOption.map(_._1.toString).orNull)
    }
  }
}

object Tracer {
  val SpanProperty = "perfbench.span"

  private val os = java.lang.management.ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** CPU time of the whole process (driver, executor threads, JIT, GC). */
  def processCpuNanos(): Long = os.getProcessCpuTime
}

/** Per-job and per-stage Spark counters, keyed by the span that submitted
  * the job. Read only after `PerfbenchBus.drain`.
  *
  * Row counts are deliberately not taken from `inputMetrics.recordsRead`:
  * on cached input it counts column batches, not rows.
  */
final class JobListener extends SparkListener {
  final case class Job(id: Int, span: Long, startMs: Long, var endMs: Long)
  final class StageCounters {
    var completed = 0
    var tasks = 0
    var runMs = 0L
    var gcMs = 0L
    var shuffleBytes = 0L
    var resultBytes = 0L
  }

  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val stageSpan = mutable.HashMap.empty[Int, Long]
  private val stages = mutable.HashMap.empty[Int, StageCounters]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanProperty)))
      .map(_.toLong).getOrElse(0L)
    jobs(e.jobId) = Job(e.jobId, span, e.time, e.time)
    e.stageIds.foreach(s => if (!stageSpan.contains(s)) stageSpan(s) = span)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stages.getOrElseUpdate(e.stageInfo.stageId, new StageCounters).completed += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val c = stages.getOrElseUpdate(e.stageId, new StageCounters)
    c.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      c.runMs += m.executorRunTime
      c.gcMs += m.jvmGCTime
      c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      c.resultBytes += m.resultSize
    }
  }

  /** Counters of everything submitted under the given spans. */
  final case class Totals(jobs: Int, stages: Int, tasks: Int, taskRunS: Double,
                          taskGcS: Double, shuffleBytes: Long, resultBytes: Long)

  def totals(spanIds: Set[Long]): Totals = synchronized {
    val js = jobs.values.filter(j => spanIds(j.span))
    val ss = stageSpan.collect { case (s, sp) if spanIds(sp) => stages.get(s) }.flatten
    Totals(js.size, ss.map(_.completed).sum, ss.map(_.tasks).sum,
      ss.map(_.runMs).sum / 1e3, ss.map(_.gcMs).sum / 1e3,
      ss.map(_.shuffleBytes).sum, ss.map(_.resultBytes).sum)
  }

  /** Every job with the span that submitted it and its start/end time. */
  def jobIntervals: Seq[Job] = synchronized(jobs.values.toSeq)
}
