package repro.core

import scala.collection.parallel.CollectionConverters._

/** The fitted offline state of Algorithm 1 (Step 1*) as plain data: the GMM
  * GBD prior, the alphabet sizes that enter `D` (Eq. 13), and per extended
  * size `v = |V₁'|` two rows computed together by [[tabulate]] — the
  * Jeffreys GED prior `F(τ, v)` and the posterior `Φ(φ, v)` of Eq. (3).
  *
  * @param gedPrior `v → Pr[GED=τ], τ ∈ [0, τ̂]`
  * @param phiTable `v → Φ(φ, v), φ ∈ [0, 2τ̂]`; same keys as `gedPrior`
  */
final case class GbdaModel(
    tauHat: Int,
    nVertexLabels: Int,
    nEdgeLabels: Int,
    gmm: Gmm,
    gedPrior: Map[Long, Array[Double]] = Map.empty,
    phiTable: Map[Long, Array[Double]] = Map.empty) extends Serializable {
  require(tauHat >= 0)

  def prGbd(phi: Int): Double = math.max(GbdaModel.MinGbdPrior, gmm.intervalProb(phi.toDouble))

  /** The rows of size `v`: `F(τ, v)` for τ ∈ [0, τ̂] and `Φ(φ, v)` for
    * φ ∈ [0, 2τ̂], both from one Λ₁ matrix. `Φ = Σ_{τ≤τ̂} Λ₁·F / Pr[GBD=φ]`
    * (Eq. 3) is clamped to [0, 1]. This is the only place Φ is computed.
    */
  private[core] def tabulate(v: Long): (Array[Double], Array[Double]) = {
    val (l1, dl1) = BranchModel.lambda1Matrix(tauHat, ModelParams(v, nVertexLabels, nEdgeLabels))
    val prior = JeffreysPrior.fromLambda1(l1, dl1)
    val phi = Array.tabulate(2 * tauHat + 1) { gbd =>
      val prG = prGbd(gbd)
      math.min(1.0, math.max(0.0, (0 to tauHat).map(tau => l1(tau)(gbd) * (prior(tau) / prG)).sum))
    }
    (prior, phi)
  }

  /** Copy with rows for every v in `vs`; v = 0 needs none (see [[Gbda.phi]]).
    * This is the only way a row is added: the sizes the model lacks are
    * tabulated in parallel on the driver, each by [[tabulate]], so a row does
    * not depend on which other sizes are tabulated with it.
    */
  def ensureVs(vs: Seq[Long]): GbdaModel = {
    val missing = vs.distinct.filter(v => v > 0 && !phiTable.contains(v))
    if (missing.isEmpty) this
    else {
      val rows = missing.par.map(v => v -> tabulate(v)).seq
      copy(gedPrior = gedPrior ++ rows.map { case (v, (f, _)) => v -> f },
        phiTable = phiTable ++ rows.map { case (v, (_, phi)) => v -> phi })
    }
  }

  /** Re-target the model to a different similarity threshold: the GMM GBD
    * prior is τ̂-independent, but `F(τ, v)` is normalized over τ ∈ [0, τ̂], so
    * every size the model holds is re-tabulated; at the model's own τ̂ the
    * model is returned as it is.
    */
  def withTauHat(newTauHat: Int): GbdaModel =
    if (newTauHat == tauHat) this
    else copy(tauHat = newTauHat, gedPrior = Map.empty, phiTable = Map.empty).ensureVs(gedPrior.keys.toSeq)
}

object GbdaModel {

  /** Floor on `Pr[GBD=φ]`: the fitted GMM density can vanish far from the
    * sampled mass, which would make Λ₂ unbounded (see DESIGN.md §4).
    */
  val MinGbdPrior = 1e-9
}

/** Steps 3–4 of Algorithm 1 (the per-graph online decision), shared between
  * the driver-side reference search and the served Spark search,
  * [[repro.spark.GbdaSearch.search]].
  */
object Gbda {

  /** Φ = Pr[GED(Q,G) ≤ τ̂ | GBD(Q,G) = φ] (Eq. 3), looked up in the
    * model's table; 0 for φ > 2τ̂ (Λ₁ vanishes there), and 1 for v = 0: two
    * empty graphs have GED = GBD = 0 ≤ τ̂. Any other size must have a row,
    * added by [[GbdaModel.ensureVs]].
    *
    * @param v extended size |V₁'| = max(|V_Q|, |V_G|) of the pair
    */
  def phi(gbd: Int, v: Long, model: GbdaModel): Double = {
    require(gbd >= 0, s"GBD must be non-negative, got $gbd")
    if (gbd > 2L * model.tauHat) 0.0
    else if (v == 0) 1.0
    else {
      val row = model.phiTable.get(v)
      require(row.isDefined, s"no Phi row for v=$v; add it with ensureVs")
      row.get(gbd)
    }
  }

  /** Steps 3–4 for one database graph G against the query Q: returns
    * `(φ, Φ)` with `φ = GBD(Q,G)` over the sorted branch ids of one
    * dictionary ([[GbdaOps.gbdFromSortedIds]]) and Φ evaluated at the
    * extended size `v = max(|V_Q|, |V_G|)`.
    */
  def score(nv: Int, branches: Array[Int], queryN: Int, queryBranches: Array[Int],
      model: GbdaModel): (Int, Double) = {
    val gbd = GbdaOps.gbdFromSortedIds(branches, queryBranches)
    (gbd, phi(gbd, math.max(nv, queryN).toLong, model))
  }

  /** Driver-side reference of the full Algorithm 1 loop over a database of
    * (id, |V|, sorted branch ids) triples; returns (id, gbd, Φ) for the
    * graphs passing `Φ ≥ γ`. Used by tests as the ground truth for the
    * distributed search.
    */
  def search(
      db: Seq[(Long, Int, Array[Int])],
      queryN: Int,
      queryBranches: Array[Int],
      model: GbdaModel,
      gamma: Double): Seq[(Long, Int, Double)] = {
    val m = model.ensureVs(Seq(queryN.toLong))
    db.flatMap { case (id, nv, branches) =>
      val (gbd, p) = score(nv, branches, queryN, queryBranches, m)
      if (p >= gamma) Some((id, gbd, p)) else None
    }
  }
}

/** The two multiset kernels. [[gbdFromSortedIds]] is GBD (Def. 4) for the
  * served search, the fit and the driver reference, over dictionary-encoded
  * branches; [[gbdFromSortedBranches]] is the same distance over strings, for
  * the LSAP/Greedy-Sort-GED substitution costs and the GED label bound.
  * (Lives in `core` so `Gbda.search` has no dependency on the graph model.)
  */
object GbdaOps {

  /** Multiset distance max(|A|,|B|) − |A ∩ B| of two string arrays sorted by
    * `String.compareTo`: the fewest single-element changes (add, remove,
    * replace) turning A into B, by a two-pointer intersection — the
    * O(max(|A|, |B|)) comparison bound the paper cites.
    */
  def gbdFromSortedBranches(b1: Array[String], b2: Array[String]): Int = {
    var i = 0
    var j = 0
    var inter = 0
    while (i < b1.length && j < b2.length) {
      val c = b1(i).compareTo(b2(j))
      if (c == 0) { inter += 1; i += 1; j += 1 }
      else if (c < 0) i += 1
      else j += 1
    }
    math.max(b1.length, b2.length) - inter
  }

  /** GBD (Def. 4) of two branch multisets given as sorted ids of one
    * `repro.graphs.BranchDictionary`: max(|A|,|B|) − |A ∩ B| by the same
    * two-pointer intersection. A negative id is a branch absent from the
    * dictionary; it equals no branch, not even another absent one, since
    * two absent branches may differ.
    */
  def gbdFromSortedIds(b1: Array[Int], b2: Array[Int]): Int = {
    var i = 0
    var j = 0
    var inter = 0
    while (i < b1.length && j < b2.length) {
      val x = b1(i)
      val y = b2(j)
      if (x < y) i += 1
      else if (x > y) j += 1
      else if (x < 0) i += 1
      else { inter += 1; i += 1; j += 1 }
    }
    math.max(b1.length, b2.length) - inter
  }
}
