package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.GbdaModel
import repro.graphs.LabeledGraph
import repro.spark.{GbdaSearch, GraphFrames}

/** The one GBDA run path of the experiment tables: encode a database, fit
  * the model on it, and answer queries with the served search
  * ([[GbdaSearch.search]]), as the benchmark does.
  */
object GbdaRuns {

  /** Run `body` on `db` encoded by [[GraphFrames.toBranchDf]], cached and
    * materialised; the DataFrame is unpersisted afterwards, also when `body`
    * throws.
    */
  def cached[A](spark: SparkSession, db: Seq[LabeledGraph])(body: DataFrame => A): A = {
    val df = GraphFrames.toBranchDf(spark, db).cache()
    try { df.count(); body(df) } finally df.unpersist()
  }

  /** [[cached]] with the model fitted once, at the largest of `tauHats`,
    * with the queries' sizes tabulated too, then re-targeted to each τ̂:
    * `body` gets the DataFrame and `(τ̂, model)` in the order of `tauHats`.
    */
  def fitted[A](spark: SparkSession, db: Seq[LabeledGraph], queries: Seq[LabeledGraph],
      tauHats: Seq[Int], nPairs: Int)(body: (DataFrame, Seq[(Int, GbdaModel)]) => A): A =
    cached(spark, db) { df =>
      val base = GbdaSearch.fitModel(df, tauHat = tauHats.max, nPairs = nPairs,
        extraVs = queries.map(_.n.toLong).distinct)
      body(df, tauHats.map(th => th -> base.withTauHat(th)))
    }

  /** `(query id, graph id) → Φ` for every query against every graph of
    * `df`, one served search per query at γ = 0.
    */
  def phis(df: DataFrame, model: GbdaModel, queries: Seq[LabeledGraph]): Map[(Long, Long), Double] =
    queries.flatMap { q =>
      GbdaSearch.search(df, model, q, gamma = 0.0).collect().map(r => (q.id, r.getLong(0)) -> r.getDouble(2))
    }.toMap
}
