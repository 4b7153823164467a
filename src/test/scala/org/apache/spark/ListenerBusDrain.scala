package org.apache.spark

/** Drains Spark's listener bus, so that a test listener has seen every event
  * posted so far. `SparkContext.listenerBus` is `private[spark]`, which is
  * why this helper lives in Spark's own package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
