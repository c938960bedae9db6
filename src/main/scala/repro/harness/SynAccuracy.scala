package repro.harness

import org.apache.spark.sql.SparkSession

import repro.ged.GedBounds

/** Accuracy vs graph size on the Syn sets (the paper's Figures 26–29,
  * tabulated): precision/recall/F1 of the served GBDA search
  * ([[GbdaRuns]]) against the construction-time ground truth, per graph
  * size n, τ̂ and γ. Cross-family separation is certified once per subset
  * with the label lower bound.
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
      val ds = Datasets.synSubset(n, scaleFree)
      certifySeparation(ds, tauHats.max)
      val queries = Datasets.synQueries(ds)
      val pairs = for (q <- queries; g <- ds.graphs) yield (q.id, g.id)

      GbdaRuns.fitted(spark, ds.graphs, queries, tauHats, nPriorPairs) { (graphsDf, models) =>
        models.flatMap { case (th, model) =>
          val phis = GbdaRuns.phis(graphsDf, model, queries)
          gammas.map(gm => Row(dsName, n, th, gm,
            Confusion.count(pairs)({ case (q, g) => ds.isSimilar(q, g, th) }, phis(_) >= gm)))
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
      Seq("n", "tauHat", "gamma") ++ Confusion.Header,
      rs.map(r => Seq(r.n.toString, r.tauHat.toString, TableText.fmt(r.gamma, 1)) ++ r.counts.cells))
}
