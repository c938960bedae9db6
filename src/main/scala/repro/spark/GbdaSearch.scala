package repro.spark

import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow

import repro.core._
import repro.graphs.LabeledGraph

import scala.util.Random

/** Distributed GBDA (Algorithm 1).
  *
  * Offline stage ([[fitModel]]), one Spark job: one pass over the rows
  * `(gid, nv, branches)` brings every graph's size and branch multiset to
  * the driver, which samples graph pairs, computes their GBDs and fits the
  * GMM prior (Eq. 14–15); then [[GbdaModel.ensureVs]] tabulates, for every
  * distinct extended size v, the Jeffreys GED prior `F(τ,v)` (Eq. 16) and
  * the posterior `Φ(φ,v)` (Eq. 3), the sizes in parallel on the driver's
  * cores — the paper's parallel offline processes (Section 7.2).
  *
  * Online stage ([[search]]): a query is one `runJob` over the internal
  * rows `(gid, nv, branches)` of the database DataFrame — the plan the
  * offline stage's pass over the rows also runs — whose task function
  * carries the model and the query's branch multiset as dictionary ids;
  * each row is scored by [[Gbda.score]] — `φ = GBD(Q,G)` (two-pointer over
  * ids, O(nd)) and Φ by table lookup — and kept if `Φ ≥ γ`.
  */
object GbdaSearch {

  /** Components of the GMM GBD prior (the paper's K = 3). */
  val GmmComponents = 3

  /** Seed of the GBD prior's pair sample, [[fitModel]]'s default. */
  val PriorSeed = 7L

  /** Offline Step 1*: fit both priors from the database DataFrame in one
    * Spark job, [[collectRows]]; the GBD prior and the F/Φ rows are computed
    * on the driver. Nothing is shuffled or persisted.
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
      seed: Long = PriorSeed,
      extraVs: Seq[Long] = Nil): GbdaModel = {
    val (nVL, nEL) = GraphFrames.alphabetSizes(graphs)
    val rows = collectRows(graphs)
    GbdaModel(tauHat, nVL, nEL, fitGbdPrior(rows.map(_._3), nPairs, seed))
      .ensureVs(rows.map(_._2.toLong).toSeq ++ extraVs)
  }

  /** Every graph's `(gid, nv, branch ids)` in partition order, which is
    * the order [[GraphFrames.toBranchDf]] encoded them in, from one job over
    * `graphs.queryExecution.toRdd`. That is the plan [[search]] runs over, so
    * the plan made here is the one later queries reuse.
    */
  def collectRows(graphs: DataFrame): Array[(Long, Int, Array[Int])] =
    graphs.sparkSession.sparkContext.runJob(graphs.queryExecution.toRdd, (it: Iterator[InternalRow]) =>
      it.map(r => (r.getLong(0), r.getInt(1), r.getArray(2).toIntArray())).toArray).flatten

  /** Offline Steps 1.1–1.3, the GBD prior: sample `nPairs` pairs of distinct
    * graphs from the sorted branch-id multisets `branches`, compute their
    * GBDs with the two-pointer kernel and fit a [[GmmComponents]]-component
    * GMM to them.
    */
  def fitGbdPrior(branches: Array[Array[Int]], nPairs: Int, seed: Long): Gmm =
    Gmm.fit(gbdSample(branches, nPairs, seed), GmmComponents)

  /** The GBDs of the pairs [[samplePairs]] draws, sorted, so that the GMM
    * depends only on the sampled multiset and not on any row order.
    */
  private[spark] def gbdSample(branches: Array[Array[Int]], nPairs: Int, seed: Long): Array[Double] =
    samplePairs(branches.length, nPairs, seed)
      .map { case (i, j) => GbdaOps.gbdFromSortedIds(branches(i), branches(j)).toDouble }
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

  /** The answer to one served query: the rows `(gid: Long, gbd: Int,
    * phi: Double)` with `Φ ≥ γ`, in partition order, and `scanned`, the
    * number of rows its job scored. Plain rows, never a Dataset, so reading
    * them does no Catalyst work.
    */
  final class Hits private[spark] (rows: Array[Row], val scanned: Long) {

    /** The hit rows, `(gid, gbd, phi)` with `Φ ≥ γ`. */
    def collect(): Array[Row] = rows
  }

  /** Online stage for one query: returns the `(gid, gbd, phi)` rows with
    * `Φ ≥ γ` (Steps 2–4 of Algorithm 1). Φ lies in [0, 1], so `γ = 0`
    * scores every graph.
    *
    * The search is eager: it runs exactly one Spark job and returns the rows
    * that job kept as plain [[Hits]], so a query does no Catalyst work at
    * all (no Dataset is analysed, planned or executed for the result). The
    * driver maps the query's branches to ids of the database's dictionary
    * once (a branch no graph has becomes −1). The job runs over
    * `graphs.queryExecution.toRdd`, the internal rows that [[collectRows]]
    * (and so [[fitModel]]) also reads; each row's branch ids are copied
    * straight from its internal row, with no external `Row`. Spark plans
    * that RDD at its first use and keeps it with the DataFrame, so cache
    * `graphs` before the first fit or search; later ones reuse the plan. A
    * DataFrame unpersisted after its first search is still answered
    * correctly, by recompute from its lineage.
    *
    * @param graphs branch DataFrame from [[GraphFrames.toBranchDf]]
    */
  def search(graphs: DataFrame, model: GbdaModel, query: LabeledGraph, gamma: Double): Hits = {
    // fitModel tabulates every |V_G|, so v = max(|V_Q|, |V_G|) can only be
    // missing when it is |V_Q|; any other gap (a model fitted on another
    // database) fails Gbda.phi's check.
    val m = model.ensureVs(Seq(query.n.toLong))
    val task = new ScoreRows(query.n, GraphFrames.dictionary(graphs).ids(query.branches), m, gamma)
    val parts = graphs.sparkSession.sparkContext.runJob(graphs.queryExecution.toRdd, task)
    new Hits(parts.flatMap(_._2), parts.map(_._1).sum)
  }

  /** The task of one served query: scores each internal row of a partition
    * against the query's size and branch ids and returns the number of rows
    * scored and the rows with `Φ ≥ γ`. A named class taking the task
    * context, not a lambda: Spark's closure cleaner re-reads the bytecode of
    * a lambda's enclosing class on every job (and `runJob` wraps a
    * one-argument function in a lambda of its own), which cost the driver
    * more per query than scoring the rows.
    */
  private final class ScoreRows(queryN: Int, queryBranches: Array[Int], model: GbdaModel, gamma: Double)
      extends ((TaskContext, Iterator[InternalRow]) => (Long, Array[Row])) with Serializable {
    def apply(context: TaskContext, rows: Iterator[InternalRow]): (Long, Array[Row]) = {
      var scanned = 0L
      val hits = rows.flatMap { r =>
        scanned += 1
        val (gbd, phi) = Gbda.score(r.getInt(1), r.getArray(2).toIntArray(), queryN, queryBranches, model)
        if (phi >= gamma) Some(Row(r.getLong(0), gbd, phi)) else None
      }.toArray
      (scanned, hits)
    }
  }
}
