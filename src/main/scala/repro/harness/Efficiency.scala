package repro.harness

import org.apache.spark.sql.SparkSession

import repro.baselines.{BipartiteGed, GraphTooLargeException, GreedyGed, Seriation}
import repro.core.{Gbda, GbdaModel, Gmm}
import repro.graphs.{GraphGen, LabeledGraph}
import repro.spark.{GbdaSearch, GraphFrames}

/** Online-stage efficiency tables (the paper's Figures 14–16, tabulated).
  *
  * Per the paper's protocol, accessory per-graph structures (branches,
  * seriation strings) are pre-computed outside the timed region; the
  * per-pair cost matrix of LSAP/Greedy is inherently per-comparison and is
  * timed. Real sets time full queries (Q vs every G ∈ D), for GBDA both as
  * the driver loop (`GBDA`) and as the served Spark search (`GBDA (Spark)`,
  * `GbdaSearch.search(...).collect()` on the cached DataFrame); synthetic sets
  * time sampled comparisons and report the per-comparison average, because
  * an O(n³) Hungarian run at n=10³ is already seconds per pair.
  */
object Efficiency {

  final case class RealRow(dataset: String, method: String, tauHat: Int, avgQueryMs: Double)
  final case class SynRow(dataset: String, n: Int, method: String,
                          perCompMs: Option[Double], note: String)

  // ------------------------------------------------------------------- real

  def realRows(spark: SparkSession, tauHats: Seq[Int] = Seq(1, 5, 10)): Seq[RealRow] =
    Datasets.realSets.flatMap { set =>
      val db = set.db
      db.foreach(_.branches) // pre-compute stored structures
      set.queries.foreach(_.branches)
      val graphsDf = GraphFrames.toBranchDf(spark, db).cache()
      graphsDf.count()
      val base = GbdaSearch.fitModel(graphsDf, tauHat = tauHats.max, nPairs = 2000,
        extraVs = set.queries.map(_.n.toLong).distinct)
      val models = tauHats.map(th => th -> base.withTauHat(th))
      val dbTriples = db.map(g => (g.id, g.n, g.branches))

      // The served search, one Spark job per query, after one untimed query
      // that plans it on graphsDf.
      GbdaSearch.search(graphsDf, base, set.queries.head, gamma = 0.5).collect()
      val servedRows = models.map { case (th, model) =>
        val (_, ms) = TableText.timeMs {
          set.queries.foreach(q => GbdaSearch.search(graphsDf, model, q, gamma = 0.5).collect())
        }
        RealRow(set.cfg.name, "GBDA (Spark)", th, ms / set.queries.size)
      }
      graphsDf.unpersist()

      val gbdaRows = models.map { case (th, model) =>
        val (_, ms) = TableText.timeMs {
          set.queries.foreach(q => Gbda.search(dbTriples, q.n, q.branches, model, gamma = 0.5))
        }
        RealRow(set.cfg.name, "GBDA", th, ms / set.queries.size)
      }
      val serStrings = db.map(g => (g, Seriation.seriationString(g))).toMap
      val qStrings = set.queries.map(q => (q, Seriation.seriationString(q))).toMap
      val baselineRows = Seq(
        timedReal(set, "LSAP")(q => db.foreach(g => BipartiteGed.estimateHungarian(q, g))),
        timedReal(set, "Greedy-Sort-GED")(q => db.foreach(g => GreedyGed.estimate(q, g))),
        timedReal(set, "Seriation")(q => db.foreach(g =>
          Seriation.estimateFromStrings(qStrings(q), serStrings(g), q.m, g.m))))
      gbdaRows ++ servedRows ++ baselineRows
    }

  private def timedReal(set: Datasets.RealSet, method: String)(
      perQuery: LabeledGraph => Unit): RealRow = {
    val (_, ms) = TableText.timeMs(set.queries.foreach(perQuery))
    RealRow(set.cfg.name, method, -1, ms / set.queries.size)
  }

  def renderReal(rows: Seq[RealRow]): String =
    TableText.render(
      "Online efficiency on real-lite sets (Fig. 14): avg query response time",
      Seq("Data Set", "Method", "tauHat", "avg query time"),
      rows.map(r => Seq(r.dataset, r.method, if (r.tauHat < 0) "-" else r.tauHat.toString,
        TableText.fmtMs(r.avgQueryMs))))

  // -------------------------------------------------------------- synthetic

  /** Per-method feasibility caps on this container (the paper's analogue:
    * LSAP dies >20K vertices, Greedy/Seriation >10K, GBDA reaches 100K).
    */
  val LsapMaxN = 1000
  val GreedyMaxN = 2000
  val SeriationMaxN = 4000

  def synRows(scaleFree: Boolean,
              sizes: Seq[Int] = Seq(100, 200, 500, 1000, 2000, 5000, 10000, 20000),
              tauHat: Int = 10,
              seed: Long = 31): Seq[SynRow] = {
    val dsName = if (scaleFree) "Syn-1-lite" else "Syn-2-lite"
    sizes.flatMap { n =>
      val ds = GraphGen.synSubset(n, families = 1, d = 10, scaleFree = scaleFree, seed = seed)
      val gs = ds.graphs
      val samplePairs = Seq((gs(0), gs(5)), (gs(2), gs(7)), (gs(1), gs(9)))
      gs.foreach(_.branches)

      // Minimal GBDA model: GMM over the family GBDs + the F and Φ rows at v=n.
      val gbds = samplePairs.map { case (a, b) => LabeledGraph.gbd(a, b).toDouble }
      val (nVL, nEL) = LabeledGraph.alphabetSizes(gs)
      val model = GbdaModel(tauHat, nVL, nEL, Gmm.fit(gbds.toArray, k = 1)).ensureVs(Seq(n.toLong))

      val reps = if (n <= 500) 3 else 1
      def time(method: String, maxN: Int)(f: (LabeledGraph, LabeledGraph) => Unit): SynRow =
        if (n > maxN) SynRow(dsName, n, method, None, s"skipped: n>$maxN cap")
        else
          try {
            val pairs = samplePairs.take(reps)
            val (_, ms) = TableText.timeMs(pairs.foreach { case (a, b) => f(a, b) })
            SynRow(dsName, n, method, Some(ms / pairs.size), "")
          } catch {
            case e: GraphTooLargeException => SynRow(dsName, n, method, None, e.getMessage)
          }

      val gbdaRow = time("GBDA", Int.MaxValue)((a, b) => Gbda.score(a.n, a.branches, b.n, b.branches, model))
      val lsapRow = time("LSAP", LsapMaxN)((a, b) => BipartiteGed.estimateHungarian(a, b))
      val greedyRow = time("Greedy-Sort-GED", GreedyMaxN)((a, b) => GreedyGed.estimate(a, b))
      // pre-compute the per-graph accessory structure only for sampled graphs
      val serStrings =
        if (n <= SeriationMaxN)
          samplePairs.take(reps).flatMap(p => Seq(p._1, p._2)).distinct
            .map(g => (g.id, Seriation.seriationString(g))).toMap
        else Map.empty[Long, Array[String]]
      val serRow = time("Seriation", SeriationMaxN) { (a, b) =>
        Seriation.estimateFromStrings(serStrings(a.id), serStrings(b.id), a.m, b.m)
      }
      Seq(gbdaRow, lsapRow, greedyRow, serRow)
    }
  }

  def renderSyn(rows: Seq[SynRow]): String =
    TableText.render(
      s"Online efficiency vs graph size (Figs. 15/16): per-comparison time, ${rows.headOption.map(_.dataset).getOrElse("")}",
      Seq("n", "Method", "per-comparison", "note"),
      rows.map(r => Seq(r.n.toString, r.method,
        r.perCompMs.map(TableText.fmtMs).getOrElse("-"), r.note)))
}
