package org.apache.spark

/** Drains Spark's listener bus, so that a listener's counters are complete
  * before they are read. `SparkContext.listenerBus` is `private[spark]`,
  * which is why this helper lives in Spark's own package.
  */
object PerfbenchBus {
  def drain(sc: SparkContext, timeoutMs: Long = 60000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)
}
