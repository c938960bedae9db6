package repro.harness

import org.apache.spark.sql.SparkSession

import repro.core.JeffreysPrior
import repro.graphs.LabeledGraph

/** Table 4: time and space costs of computing the GED prior distribution
  * (Section 5.2.2 / 6.3.2). `F(τ, v)` is computed for every distinct
  * extended size v of the dataset, one parallel process (Spark task) per v,
  * exactly like the paper's fully-parallelized offline stage: the realized
  * time is maxᵢTᵢ, the single-process time is ΣᵢTᵢ.
  */
object Table4GedPrior {

  final case class Row(name: String, tauHat: Int, nProcesses: Int,
                       sumTimeMs: Double, maxTimeMs: Double,
                       sumSpaceBytes: Long, maxSpaceBytes: Long,
                       wallMs: Double)

  /** One process per distinct `(v, |L_V|, |L_E|)` of `procs`. */
  def run(spark: SparkSession, name: String, procs: Seq[(Long, Int, Int)], tauHat: Int): Row = {
    val distinct = procs.distinct.sortBy(_._1)
    val (perProcess, wall) = TableText.timeMs {
      spark.sparkContext
        .parallelize(distinct, math.min(distinct.size, spark.sparkContext.defaultParallelism))
        .map { case (v, nVertexLabels, nEdgeLabels) =>
          val t0 = System.nanoTime()
          val prior = JeffreysPrior.forV(v, tauHat, nVertexLabels, nEdgeLabels)
          val ms = (System.nanoTime() - t0) / 1e6
          (v, ms, prior.length * 8L)
        }
        .collect()
    }
    Row(name, tauHat, perProcess.length,
      perProcess.map(_._2).sum, perProcess.map(_._2).max,
      perProcess.map(_._3).sum, perProcess.map(_._3).max,
      wall)
  }

  /** Every size v of `db`, with the alphabet sizes [[repro.spark.GbdaSearch.fitModel]] uses for it. */
  private def processes(db: Seq[LabeledGraph]): Seq[(Long, Int, Int)] = {
    val (nVL, nEL) = LabeledGraph.alphabetSizes(db)
    db.map(g => (g.n.toLong, nVL, nEL))
  }

  def rows(spark: SparkSession, tauHat: Int = 10): Seq[Row] = {
    val real = Datasets.realSets.map(s => run(spark, s.cfg.name, processes(s.db), tauHat))
    val syn = Seq(true, false).map { sf =>
      // one process per subset size, as in the paper's synthetic runs
      run(spark, if (sf) "Syn-1-lite" else "Syn-2-lite",
        Datasets.synLite(sf).flatMap { case (_, ds) => processes(ds.graphs) }, tauHat)
    }
    real ++ syn
  }

  def render(rs: Seq[Row]): String =
    TableText.render(
      s"Table 4: Costs of computing GED prior distribution (tauHat=${rs.headOption.map(_.tauHat).getOrElse(0)})",
      Seq("Data Set", "#proc", "sum Ti", "max Ti", "sum Si", "max Si", "wall"),
      rs.map(r => Seq(r.name, r.nProcesses.toString,
        TableText.fmtMs(r.sumTimeMs), TableText.fmtMs(r.maxTimeMs),
        TableText.fmtBytes(r.sumSpaceBytes), TableText.fmtBytes(r.maxSpaceBytes),
        TableText.fmtMs(r.wallMs))))
}
