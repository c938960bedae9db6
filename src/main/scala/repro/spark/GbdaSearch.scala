package repro.spark

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

import repro.core._
import repro.graphs.LabeledGraph

import scala.jdk.CollectionConverters._
import scala.util.Random

/** Distributed GBDA (Algorithm 1).
  *
  * Offline stage ([[fitModel]]): sample graph pairs, compute their GBDs
  * distributed ([[GbdSpark.pairwiseGbd]]), fit the GMM prior (Eq. 14–15);
  * then, for every distinct extended size v, tabulate the Jeffreys GED prior
  * `F(τ,v)` (Eq. 16) and the posterior `Φ(φ,v)` (Eq. 3) as Spark tasks —
  * mirroring the paper's fully parallel offline processes (Section 7.2).
  *
  * Online stage ([[search]]): a query is one `runJob` over the rows
  * `(gid, nv, branches)` of the database DataFrame, whose closure carries
  * the model and the query's branch multiset; each row is scored by
  * [[Gbda.score]] — `φ = GBD(Q,G)` (two-pointer, O(nd)) and Φ by table
  * lookup — and kept if `Φ ≥ γ`.
  */
object GbdaSearch {

  /** Components of the GMM GBD prior (the paper's K = 3). */
  val GmmComponents = 3

  /** Offline Step 1*: fit both priors from the database DataFrame.
    *
    * @param graphs  branch DataFrame from [[GraphFrames.toBranchDf]]
    * @param nPairs  number of sampled pairs for the GBD prior (α% · |D|²)
    * @param extraVs additional extended sizes to tabulate (e.g. expected
    *                query sizes), besides every distinct |V_G| in the DB
    */
  def fitModel(
      graphs: DataFrame,
      tauHat: Int,
      nPairs: Int,
      seed: Long = 7,
      extraVs: Seq[Long] = Nil): GbdaModel = {
    val sc = graphs.sparkSession.sparkContext
    val (nVL, nEL) = GraphFrames.alphabetSizes(graphs)
    val ids = graphs.select("gid", "nv").collect().map(r => (r.getLong(0), r.getInt(1)))

    val gmm = fitGbdPrior(graphs, ids.map(_._1), nPairs, seed)

    // F and Φ rows per distinct extended size, one Spark task per v; v = 0
    // (two empty graphs) needs no row, as Φ is 1 there.
    val unfitted = GbdaModel(tauHat, nVL, nEL, gmm)
    val vs = (ids.map(_._2.toLong) ++ extraVs).distinct.filter(_ > 0).toSeq
    unfitted.withRows(sc
      .parallelize(vs, math.max(1, math.min(vs.size, sc.defaultParallelism)))
      .map(v => (v, unfitted.tabulate(v)))
      .collect())
  }

  /** Offline Steps 1.1–1.3, the GBD prior: sample `nPairs` pairs of distinct
    * graphs from `ids`, compute their GBDs distributed
    * ([[GbdSpark.pairwiseGbd]]), and fit a [[GmmComponents]]-component GMM
    * to them.
    */
  def fitGbdPrior(graphs: DataFrame, ids: Array[Long], nPairs: Int, seed: Long): Gmm = {
    require(ids.length >= 2, "need at least two graphs to fit priors")
    val rng = new Random(seed)
    val pairs = Seq.fill(nPairs) {
      val i = rng.nextInt(ids.length)
      var j = rng.nextInt(ids.length)
      while (j == i) j = rng.nextInt(ids.length)
      (ids(i), ids(j))
    }
    val spark = graphs.sparkSession
    import spark.implicits._
    val gbds = GbdSpark.pairwiseGbd(graphs, pairs.toDF("gid1", "gid2"))
      .select("gbd").collect().map(_.getInt(0).toDouble)
    Gmm.fit(gbds, GmmComponents)
  }

  private val hitSchema = StructType(Seq(
    StructField("gid", LongType, nullable = false),
    StructField("gbd", IntegerType, nullable = false),
    StructField("phi", DoubleType, nullable = false)))

  /** Online stage for one query: returns `(gid, gbd, phi)` rows with
    * `Φ ≥ γ` (Steps 2–4 of Algorithm 1). Φ lies in [0, 1], so `γ = 0`
    * scores every graph.
    *
    * The search is eager: it runs exactly one Spark job and returns its
    * hits as a local DataFrame, whose actions start no further job. The
    * job runs over `graphs.rdd`, which Spark plans at its first use and
    * keeps with the DataFrame, so cache `graphs` before the first search;
    * later searches reuse that plan. A DataFrame unpersisted after its
    * first search is still answered correctly, by recompute from its
    * lineage.
    *
    * @param graphs branch DataFrame from [[GraphFrames.toBranchDf]]
    */
  def search(graphs: DataFrame, model: GbdaModel, query: LabeledGraph, gamma: Double): DataFrame = {
    // fitModel tabulates every |V_G|, so v = max(|V_Q|, |V_G|) can only be
    // missing when it is |V_Q|; any other gap (a model fitted on another
    // database) fails Gbda.phi's check.
    val m = model.ensureVs(Seq(query.n.toLong))
    val (qn, qb) = (query.n, query.branches)
    val hits = graphs.sparkSession.sparkContext.runJob(graphs.rdd, (it: Iterator[Row]) =>
      it.flatMap { r =>
        val (gbd, phi) = Gbda.score(r.getInt(1), r.getSeq[String](2).toArray, qn, qb, m)
        if (phi >= gamma) Some(Row(r.getLong(0), gbd, phi)) else None
      }.toArray)
    graphs.sparkSession.createDataFrame(hits.iterator.flatten.toSeq.asJava, hitSchema)
  }
}
