package repro.perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** Spark-side trace, recorded from outside the program: every job, stage and
  * task is attributed to the tag (see [[Serve.TagKey]]) that was set on the
  * thread submitting the job, and keyed by the call site of the action that
  * caused it. A Dataset action's call site is its SQL execution's
  * description (adaptive execution submits its stages from other threads);
  * an RDD action's is the name of the job's final stage.
  */
final class SparkTrace extends SparkListener {

  final class Job(val id: Int, val tag: String, val callSite: String, val startMs: Long) {
    var endMs: Long = -1L
    var firstLaunchMs: Long = -1L
  }

  final class Tasks {
    var tasks = 0L
    var stages = 0L
    var runMs = 0L
    var cpuNs = 0L
    var deserMs = 0L
    var gcMs = 0L
    var shuffleWriteBytes = 0L
    var resultBytes = 0L
  }

  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val stageJob = mutable.HashMap.empty[Int, Job]
  private val byTag = mutable.HashMap.empty[String, Tasks]
  private val executionSite = mutable.HashMap.empty[Long, String]
  private var markerSeen = false

  private def tasksOf(tag: String): Tasks = byTag.getOrElseUpdate(tag, new Tasks)

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case x: SparkListenerSQLExecutionStart => synchronized { executionSite(x.executionId) = x.description }
    case _ =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    def prop(k: String) = Option(e.properties).flatMap(p => Option(p.getProperty(k)))
    val stageSite = if (e.stageInfos.isEmpty) "" else e.stageInfos.maxBy(_.stageId).name
    val site = prop("spark.sql.execution.id").flatMap(id => executionSite.get(id.toLong)).getOrElse(stageSite)
    val job = new Job(e.jobId, prop(Serve.TagKey).getOrElse(""), site, e.time)
    jobs(e.jobId) = job
    e.stageIds.foreach(s => stageJob(s) = job)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach { j =>
      j.endMs = e.time
      if (j.tag == SparkTrace.MarkerTag) { markerSeen = true; notifyAll() }
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    stageJob.get(e.stageInfo.stageId).foreach(j => tasksOf(j.tag).stages += 1)
  }

  override def onTaskStart(e: SparkListenerTaskStart): Unit = synchronized {
    stageJob.get(e.stageId).foreach { j =>
      if (j.firstLaunchMs < 0) j.firstLaunchMs = e.taskInfo.launchTime
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageJob.get(e.stageId).foreach { j =>
      val t = tasksOf(j.tag)
      t.tasks += 1
      val m = e.taskMetrics
      if (m != null) {
        t.runMs += m.executorRunTime
        t.cpuNs += m.executorCpuTime
        t.deserMs += m.executorDeserializeTime
        t.gcMs += m.jvmGCTime
        t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        t.resultBytes += m.resultSize
      }
    }
  }

  /** Jobs of one tag, in submission order. */
  def jobsOf(tag: String): Vector[Job] = synchronized { jobs.values.filter(_.tag == tag).toVector }

  /** Task totals of one tag. */
  def tasks(tag: String): Tasks = synchronized { tasksOf(tag) }

  /** Block until every event posted before this call has been delivered: a
    * one-task marker job's end event is queued after all of them.
    */
  def drain(sc: SparkContext): Unit = {
    synchronized { markerSeen = false }
    sc.setLocalProperty(Serve.TagKey, SparkTrace.MarkerTag)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(Serve.TagKey, null)
    synchronized {
      val deadline = System.currentTimeMillis + 30000
      while (!markerSeen && System.currentTimeMillis < deadline) wait(100)
      require(markerSeen, "Spark listener events were not delivered within 30 s")
    }
  }
}

object SparkTrace {
  val MarkerTag = "marker"

  /** Total length of the union of `[start, end]` intervals, each first
    * clipped to `[lo, hi]`.
    */
  def unionMs(intervals: Seq[(Long, Long)], lo: Long = Long.MinValue, hi: Long = Long.MaxValue): Long = {
    val clipped = intervals.map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }
      .filter { case (s, e) => e > s }.sortBy(_._1)
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    clipped.foreach { case (s, e) =>
      if (s > curE) {
        if (curE > curS) total += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (curE > curS) total += curE - curS
    total
  }
}
