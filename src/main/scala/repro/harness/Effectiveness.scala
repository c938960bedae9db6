package repro.harness

import org.apache.spark.sql.SparkSession

import repro.baselines.{BipartiteGed, GreedyGed, Seriation}
import repro.graphs.LabeledGraph
import repro.harness.Datasets.RealSet

/** Effectiveness tables (the paper's Figures 17–25, tabulated): precision
  * ("accuracy" in the paper), recall and F1 of the search results against
  * exact-GED ground truth, per method, τ̂ and probability threshold γ.
  * Counts are aggregated over all queries of a dataset.
  */
object Effectiveness {

  final case class Row(dataset: String, method: String, tauHat: Int, gamma: Option[Double],
                       counts: Confusion)

  /** All rows for one dataset. Baseline estimates and exact GEDs are
    * computed once per pair and reused across the τ̂ sweep; GBDA's Φ are the
    * served search's answers ([[GbdaRuns]]).
    */
  def rows(spark: SparkSession, set: RealSet,
           tauHats: Seq[Int] = 1 to 5,
           gammas: Seq[Double] = Seq(0.7, 0.8, 0.9),
           nPriorPairs: Int = 2000): Seq[Row] = {
    val pairs = for (q <- set.queries; g <- set.db) yield (q, g)
    val ids = pairs.map { case (q, g) => (q.id, g.id) }
    val serStr = (set.db ++ set.queries).map(g => g.id -> Seriation.seriationString(g)).toMap
    val baselines = Seq[(String, (LabeledGraph, LabeledGraph) => Int)](
      ("LSAP", BipartiteGed.estimateHungarian),
      ("Greedy-Sort-GED", GreedyGed.estimate),
      ("Seriation", (q, g) => Seriation.estimateFromStrings(serStr(q.id), serStr(g.id), q.m, g.m)))
      .map { case (method, estimate) => method -> ids.zip(pairs.map(estimate.tupled)).toMap }

    GbdaRuns.fitted(spark, set.db, set.queries, tauHats, nPriorPairs) { (graphsDf, models) =>
      models.flatMap { case (th, model) =>
        def metrics(method: String, gamma: Option[Double])(pred: ((Long, Long)) => Boolean): Row =
          Row(set.cfg.name, method, th, gamma, Confusion.count(ids)(set.exactGeds(_) <= th, pred))

        val phis = GbdaRuns.phis(graphsDf, model, set.queries)
        gammas.map(gm => metrics("GBDA", Some(gm))(phis(_) >= gm)) ++
          baselines.map { case (method, estimates) => metrics(method, None)(estimates(_) <= th) }
      }
    }
  }

  def render(title: String, rs: Seq[Row]): String =
    TableText.render(
      title,
      Seq("Data Set", "Method", "tauHat", "gamma") ++ Confusion.Header,
      rs.map(r => Seq(r.dataset, r.method, r.tauHat.toString,
        r.gamma.map(TableText.fmt(_, 1)).getOrElse("-")) ++ r.counts.cells))
}
