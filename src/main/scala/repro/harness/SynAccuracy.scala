package repro.harness

import org.apache.spark.sql.SparkSession

import repro.core.Gbda
import repro.ged.GedBounds
import repro.spark.{GbdaSearch, GraphFrames}

/** Accuracy vs graph size on the Syn sets (the paper's Figures 26–29,
  * tabulated): GBDA precision/recall/F1 against the construction-time
  * ground truth, per graph size n, τ̂ and γ. Cross-family separation is
  * certified once per subset with the label lower bound.
  */
object SynAccuracy {

  final case class Row(dataset: String, n: Int, tauHat: Int, gamma: Double, counts: Confusion)

  def rows(spark: SparkSession, scaleFree: Boolean = true,
           sizes: Seq[Int] = Datasets.synSizes,
           tauHats: Seq[Int] = Seq(3, 4, 5, 6),
           gammas: Seq[Double] = Seq(0.7, 0.8, 0.9),
           nPriorPairs: Int = 400): Seq[Row] = {
    val dsName = if (scaleFree) "Syn-1-lite" else "Syn-2-lite"
    sizes.flatMap { n =>
      val ds = Datasets.synSubsetCached(n, scaleFree)
      certifySeparation(ds, tauHats.max)
      val queries = Datasets.synQueries(ds)

      val graphsDf = GraphFrames.toBranchDf(spark, ds.graphs).cache()
      graphsDf.count()
      val base = GbdaSearch.fitModel(graphsDf, tauHat = tauHats.max, nPairs = nPriorPairs)
      graphsDf.unpersist()

      val pairs = for (q <- queries; g <- ds.graphs) yield (q, g)

      tauHats.flatMap { th =>
        val model = base.withTauHat(th)
        val phiCache = pairs.map { case (q, g) =>
          (q.id, g.id) -> Gbda.score(g.n, g.branches, q.n, q.branches, model)._2
        }.toMap
        gammas.map { gm =>
          Row(dsName, n, th, gm, Confusion.count(pairs)(
            { case (q, g) => ds.isSimilar(q.id, g.id, th) },
            { case (q, g) => phiCache((q.id, g.id)) >= gm }))
        }
      }
    }
  }

  /** Certify that graphs of different families are more than τ̂ apart —
    * the construction's cross-family negatives are then exact ground truth.
    */
  def certifySeparation(ds: repro.graphs.GraphGen.KnownGedDataset, tauHatMax: Int): Unit = {
    val reps = ds.meta.groupBy(_._2._1).map { case (_, m) => ds.graphs.find(_.id == m.keys.min).get }
    val rs = reps.toSeq
    for (i <- rs.indices; j <- i + 1 until rs.size) {
      val lb = GedBounds.labelLowerBound(rs(i), rs(j))
      require(lb > tauHatMax,
        s"cross-family lower bound $lb is not > $tauHatMax; ground truth would be unsound")
    }
  }

  def render(rs: Seq[Row]): String =
    TableText.render(
      s"GBDA accuracy vs graph size (Figs. 26–29), ${rs.headOption.map(_.dataset).getOrElse("")}",
      Seq("n", "tauHat", "gamma", "precision", "recall", "F1", "TP", "FP", "FN"),
      rs.map(r => Seq(r.n.toString, r.tauHat.toString, TableText.fmt(r.gamma, 1),
        TableText.fmt(r.counts.precision), TableText.fmt(r.counts.recall), TableText.fmt(r.counts.f1),
        r.counts.tp.toString, r.counts.fp.toString, r.counts.fn.toString)))
}
