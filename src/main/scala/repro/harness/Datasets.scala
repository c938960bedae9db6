package repro.harness

import scala.collection.parallel.CollectionConverters._

import repro.ged.ExactGed
import repro.graphs.GraphGen
import repro.graphs.GraphGen.{IamLikeConfig, KnownGedDataset}
import repro.graphs.LabeledGraph

/** The five evaluation datasets (Table 2), at reproduction scale.
  *
  * Real IAM sets are replaced by IAM-like synthetic sets small enough for
  * exact-GED ground truth; Syn-1/Syn-2 use the Appendix-F known-GED family
  * construction at container scale (see DESIGN.md §4 for the substitution
  * rationale). All generation is deterministic in the seeds below.
  */
object Datasets {

  /** An IAM-like dataset: database plus query graphs. */
  final case class RealSet(cfg: IamLikeConfig, db: Vector[LabeledGraph], queries: Vector[LabeledGraph]) {

    /** Exact-GED ground truth, (query id, graph id) → GED for every query ×
      * database pair, computed once and in parallel across the local cores:
      * the substitute for the paper's days-long exact-GED runs (DESIGN.md §4).
      */
    lazy val exactGeds: Map[(Long, Long), Int] =
      (for (q <- queries; g <- db) yield (q, g)).par
        .map { case (q, g) => (q.id, g.id) -> ExactGed.compute(q, g) }.seq.toMap
  }

  // |L_V|, |L_E| and average degree follow Table 2; sizes are exact-GED-feasible.
  val aidsCfg   = IamLikeConfig("AIDS-lite",   285, 15, 4, 9, 10, 3, 2.1, seed = 101)
  val fingerCfg = IamLikeConfig("Finger-lite", 250, 13, 4, 8, 3, 5, 1.7, seed = 102)
  val grecCfg   = IamLikeConfig("GREC-lite",   200, 11, 4, 8, 6, 4, 2.1, seed = 103)

  lazy val aidsLite: RealSet = build(aidsCfg)
  lazy val fingerLite: RealSet = build(fingerCfg)
  lazy val grecLite: RealSet = build(grecCfg)
  lazy val realSets: Seq[RealSet] = Seq(aidsLite, fingerLite, grecLite)

  private def build(cfg: IamLikeConfig): RealSet = {
    val (db, qs) = GraphGen.iamLike(cfg)
    RealSet(cfg, db, qs)
  }

  /** Graph sizes of the Syn-lite subsets (paper: 1K–100K; see DESIGN.md). */
  val synSizes: Seq[Int] = Seq(100, 200, 500, 1000, 2000)

  /** Families per subset and the modification-center budget d (pairwise GEDs
    * within a family span 1..d, matching τ̂ ∈ [1,10]).
    */
  val synFamilies = 5
  val synD = 10

  private val synCache = scala.collection.concurrent.TrieMap.empty[(Int, Boolean), KnownGedDataset]

  /** One Syn-lite subset: scale-free (Syn-1) or uniformly random (Syn-2),
    * generated once per (n, scaleFree).
    */
  def synSubset(n: Int, scaleFree: Boolean): KnownGedDataset =
    synCache.getOrElseUpdate((n, scaleFree), GraphGen.synSubset(n, families = synFamilies, d = synD,
      scaleFree = scaleFree, seed = if (scaleFree) 201 else 202))

  /** All subsets of one Syn-lite dataset. */
  def synLite(scaleFree: Boolean): Seq[(Int, KnownGedDataset)] =
    synSizes.map(n => n -> synSubset(n, scaleFree))

  /** Query graphs for one subset: two variants per family (they are members
    * of the database, as in the paper's protocol).
    */
  def synQueries(ds: KnownGedDataset): Seq[LabeledGraph] = {
    val picks = ds.meta.collect { case (id, (_, variant)) if variant == 2 || variant == 7 => id }.toSet
    ds.graphs.filter(g => picks.contains(g.id))
  }
}
