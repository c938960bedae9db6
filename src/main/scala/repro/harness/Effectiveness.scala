package repro.harness

import org.apache.spark.sql.SparkSession

import repro.baselines.{BipartiteGed, GreedyGed, Seriation}
import repro.core.Gbda
import repro.graphs.LabeledGraph
import repro.harness.Datasets.RealSet
import repro.spark.{GbdaSearch, GraphFrames}

/** Effectiveness tables (the paper's Figures 17–25, tabulated): precision
  * ("accuracy" in the paper), recall and F1 of the search results against
  * exact-GED ground truth, per method, τ̂ and probability threshold γ.
  * Counts are aggregated over all queries of a dataset.
  */
object Effectiveness {

  final case class Row(dataset: String, method: String, tauHat: Int, gamma: Option[Double],
                       counts: Confusion)

  /** All rows for one dataset. Baseline estimates and exact GEDs are
    * computed once per pair and reused across the τ̂ sweep.
    */
  def rows(spark: SparkSession, set: RealSet,
           tauHats: Seq[Int] = 1 to 5,
           gammas: Seq[Double] = Seq(0.7, 0.8, 0.9),
           nPriorPairs: Int = 2000): Seq[Row] = {
    val gt = GroundTruth.exactGeds(set)
    val pairs = for (q <- set.queries; g <- set.db) yield (q, g)

    val lsap = pairs.map { case (q, g) => (q.id, g.id) -> BipartiteGed.estimateHungarian(q, g) }.toMap
    val greedy = pairs.map { case (q, g) => (q.id, g.id) -> GreedyGed.estimate(q, g) }.toMap
    val serStr = (set.db ++ set.queries).map(g => g.id -> Seriation.seriationString(g)).toMap
    val seriation = pairs.map { case (q, g) =>
      (q.id, g.id) -> Seriation.estimateFromStrings(serStr(q.id), serStr(g.id), q.m, g.m)
    }.toMap

    val graphsDf = GraphFrames.toBranchDf(spark, set.db).cache()
    graphsDf.count()
    val base = GbdaSearch.fitModel(graphsDf, tauHat = tauHats.max, nPairs = nPriorPairs,
      extraVs = set.queries.map(_.n.toLong).distinct)
    graphsDf.unpersist()

    tauHats.flatMap { th =>
      def metrics(method: String, gamma: Option[Double])(pred: (LabeledGraph, LabeledGraph) => Boolean): Row =
        Row(set.cfg.name, method, th, gamma,
          Confusion.count(pairs)({ case (q, g) => gt((q.id, g.id)) <= th }, pred.tupled))

      val model = base.withTauHat(th)
      val phiCache = pairs.map { case (q, g) =>
        (q.id, g.id) -> Gbda.score(g.n, g.branches, q.n, q.branches, model)._2
      }.toMap

      gammas.map(gm => metrics("GBDA", Some(gm))((q, g) => phiCache((q.id, g.id)) >= gm)) ++ Seq(
        metrics("LSAP", None)((q, g) => lsap((q.id, g.id)) <= th),
        metrics("Greedy-Sort-GED", None)((q, g) => greedy((q.id, g.id)) <= th),
        metrics("Seriation", None)((q, g) => seriation((q.id, g.id)) <= th))
    }
  }

  def render(title: String, rs: Seq[Row]): String =
    TableText.render(
      title,
      Seq("Data Set", "Method", "tauHat", "gamma", "precision", "recall", "F1", "TP", "FP", "FN"),
      rs.map(r => Seq(r.dataset, r.method, r.tauHat.toString,
        r.gamma.map(TableText.fmt(_, 1)).getOrElse("-"),
        TableText.fmt(r.counts.precision), TableText.fmt(r.counts.recall), TableText.fmt(r.counts.f1),
        r.counts.tp.toString, r.counts.fp.toString, r.counts.fn.toString)))
}
