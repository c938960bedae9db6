package repro.perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger

import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.sql.DataFrame

import repro.core.GbdaModel
import repro.spark.GbdaSearch

/** One served query. `startMs`/`endMs` are wall-clock bounds that line up
  * with Spark listener timestamps; `latencyNs` is the monotonic latency.
  */
final case class Served(tag: String, query: Int, startMs: Long, endMs: Long, latencyNs: Long, ok: Boolean)

final case class ServePhase(records: Vector[Served], wallNs: Long) {
  def latenciesMs: Array[Double] = records.map(_.latencyNs / 1e6).toArray
  def failed: Int = records.count(!_.ok)
  def qps: Double = records.size / (wallNs / 1e9)
}

/** Closed-loop serving: each client sends its next query only after the
  * previous answer is collected. Clients share one SparkSession and take
  * query indices from one counter, cycling through the workload's queries.
  */
object Serve {

  /** Local property that tags every Spark job with the query that caused it. */
  val TagKey = "perfbench.tag"

  /** Timed queries per phase at least, so ≥10 samples lie beyond p90. */
  val MinTimedQueries = 100

  private val errorsShown = new AtomicInteger(0)

  /** Serve until `seconds` have passed and at least `minQueries` completed.
    * Each answer is compared with `expected`; a mismatch or an exception
    * marks the query as failed. Jobs are tagged `"<phase>:<sequence no.>"`.
    */
  def run(
      df: DataFrame,
      model: GbdaModel,
      w: Workload,
      expected: Vector[Set[(Long, Int)]],
      phase: String,
      seconds: Double,
      minQueries: Int): ServePhase = {
    val sc = df.sparkSession.sparkContext
    val next = new AtomicInteger(0)
    val done = new AtomicInteger(0)
    val out = new ConcurrentLinkedQueue[Served]()
    val t0 = System.nanoTime
    val deadline = t0 + (seconds * 1e9).toLong

    def client(): Unit =
      while (System.nanoTime < deadline || done.get < minQueries) {
        val i = next.getAndIncrement()
        val qi = i % w.queries.size
        val tag = s"$phase:$i"
        sc.setLocalProperty(TagKey, tag)
        val startMs = System.currentTimeMillis
        val n0 = System.nanoTime
        val answer =
          try Right(GbdaSearch.search(df, model, w.queries(qi), Workloads.Gamma).collect())
          catch { case NonFatal(e) => Left(e) }
        val latency = System.nanoTime - n0
        val endMs = System.currentTimeMillis
        sc.setLocalProperty(TagKey, null)
        val ok = answer match {
          case Right(rows) => rows.map(r => (r.getLong(0), r.getInt(1))).toSet == expected(qi)
          case Left(e) =>
            if (errorsShown.getAndIncrement() < 5) Console.err.println(s"query $qi failed: $e")
            false
        }
        out.add(Served(tag, qi, startMs, endMs, latency, ok))
        done.incrementAndGet()
      }

    val threads = Vector.tabulate(w.clients)(c => new Thread(() => client(), s"perfbench-client-$c"))
    threads.foreach(_.start())
    threads.foreach(_.join())
    ServePhase(out.asScala.toVector, System.nanoTime - t0)
  }
}
