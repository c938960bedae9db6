package repro.spark

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

import repro.core._
import repro.graphs.LabeledGraph

import scala.jdk.CollectionConverters._
import scala.util.Random

/** Distributed GBDA (Algorithm 1).
  *
  * Offline stage ([[fitModel]]), two Spark jobs: one pass over the rows
  * `(gid, nv, branches)` brings every graph's size and branch multiset to
  * the driver, which samples graph pairs, computes their GBDs and fits the
  * GMM prior (Eq. 14–15); then, for every distinct extended size v, one
  * Spark task per v tabulates the Jeffreys GED prior `F(τ,v)` (Eq. 16) and
  * the posterior `Φ(φ,v)` (Eq. 3) — mirroring the paper's fully parallel
  * offline processes (Section 7.2).
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

  /** Offline Step 1*: fit both priors from the database DataFrame, in two
    * Spark jobs: [[collectRows]], then the F/Φ rows. Nothing is shuffled or
    * persisted.
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
    val rows = collectRows(graphs)

    val gmm = fitGbdPrior(rows.map(_._3), nPairs, seed)

    // F and Φ rows per distinct extended size, one Spark task per v; v = 0
    // (two empty graphs) needs no row, as Φ is 1 there.
    val unfitted = GbdaModel(tauHat, nVL, nEL, gmm)
    val vs = (rows.map(_._2.toLong) ++ extraVs).distinct.filter(_ > 0).toSeq
    unfitted.withRows(sc
      .parallelize(vs, math.max(1, math.min(vs.size, sc.defaultParallelism)))
      .map(v => (v, unfitted.tabulate(v)))
      .collect())
  }

  /** Every graph's `(gid, nv, branches)` in partition order, which is the
    * order [[GraphFrames.toBranchDf]] encoded them in, from one job over
    * `graphs.rdd`. That is the RDD [[search]] runs over, so the plan made
    * here is the one later queries reuse.
    */
  def collectRows(graphs: DataFrame): Array[(Long, Int, Array[String])] =
    graphs.sparkSession.sparkContext.runJob(graphs.rdd, (it: Iterator[Row]) =>
      it.map(r => (r.getLong(0), r.getInt(1), r.getSeq[String](2).toArray)).toArray).flatten

  /** Offline Steps 1.1–1.3, the GBD prior: sample `nPairs` pairs of distinct
    * graphs from the sorted branch multisets `branches`, compute their GBDs
    * with the two-pointer kernel and fit a [[GmmComponents]]-component GMM
    * to them.
    */
  def fitGbdPrior(branches: Array[Array[String]], nPairs: Int, seed: Long): Gmm =
    Gmm.fit(gbdSample(branches, nPairs, seed), GmmComponents)

  /** The GBDs of the pairs [[samplePairs]] draws, sorted, so that the GMM
    * depends only on the sampled multiset and not on any row order.
    */
  private[spark] def gbdSample(branches: Array[Array[String]], nPairs: Int, seed: Long): Array[Double] =
    samplePairs(branches.length, nPairs, seed)
      .map { case (i, j) => GbdaOps.gbdFromSortedBranches(branches(i), branches(j)).toDouble }
      .sorted

  /** `nPairs` uniformly drawn index pairs `(i, j)` of distinct graphs among `n`. */
  private[spark] def samplePairs(n: Int, nPairs: Int, seed: Long): Array[(Int, Int)] = {
    require(n >= 2, "need at least two graphs to fit priors")
    val rng = new Random(seed)
    Array.fill(nPairs) {
      val i = rng.nextInt(n)
      var j = rng.nextInt(n)
      while (j == i) j = rng.nextInt(n)
      (i, j)
    }
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
