package repro.harness

import org.apache.spark.sql.SparkSession

import repro.core.Gmm
import repro.spark.GbdaSearch

/** Table 3: time and space costs of computing the GBD prior distribution
  * (Section 5.2.1 / 6.3.1): read the cached rows, sample N graph pairs,
  * compute their GBDs, fit the GMM (all as in [[GbdaSearch.fitModel]]),
  * tabulate Pr[GBD=φ] for φ ∈ [0, n].
  */
object Table3GbdPrior {

  final case class Row(name: String, nPairs: Int, timeMs: Double, spaceBytes: Long, gmm: Gmm)

  /** Run the full GBD-prior pipeline on one dataset. */
  def run(spark: SparkSession, name: String, db: Seq[repro.graphs.LabeledGraph], nPairs: Int): Row = {
    // The cached rows are materialized outside the timed region (stored structures).
    val (result, ms) = GbdaRuns.cached(spark, db) { graphsDf =>
      TableText.timeMs {
        // Steps 1.1–1.3: fitModel's own pass over the rows, pair sampling, GBDs and GMM fit
        val gmm = GbdaSearch.fitGbdPrior(GbdaSearch.collectRows(graphsDf).map(_._3), nPairs, GbdaSearch.PriorSeed)
        // Step 1.4: tabulate Pr[GBD=φ], φ ∈ [0, n]
        val nMax = db.map(_.n).max
        val table = Array.tabulate(nMax + 1)(phi => gmm.intervalProb(phi.toDouble))
        (gmm, table)
      }
    }
    Row(name, nPairs, ms, result._2.length * 8L, result._1)
  }

  def rows(spark: SparkSession, nPairsReal: Int = 2000, nPairsSyn: Int = 500): Seq[Row] = {
    val real = Datasets.realSets.map(s => run(spark, s.cfg.name, s.db, nPairsReal))
    val syn = Seq(true, false).map { sf =>
      // Each subset numbers its graphs from 0, so their union is renumbered.
      val db = Datasets.synLite(sf).flatMap(_._2.graphs).zipWithIndex.map { case (g, i) => g.copy(id = i.toLong) }
      run(spark, if (sf) "Syn-1-lite" else "Syn-2-lite", db, nPairsSyn)
    }
    real ++ syn
  }

  def render(rs: Seq[Row]): String =
    TableText.render(
      "Table 3: Costs of computing GBD prior distribution",
      Seq("Data Set", "N pairs", "Time", "Space"),
      rs.map(r => Seq(r.name, r.nPairs.toString, TableText.fmtMs(r.timeMs),
        TableText.fmtBytes(r.spaceBytes))))
}
