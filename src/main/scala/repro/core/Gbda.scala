package repro.core

/** The fitted offline state of Algorithm 1 (Step 1*): the Jeffreys GED prior
  * table `F(τ, v)` and the GMM GBD prior, plus the alphabet sizes that enter
  * `D` (Eq. 13).
  *
  * @param gedPrior    `v = |V₁'| → Pr[GED=τ], τ ∈ [0, τ̂]`
  * @param minGbdPrior floor on `Pr[GBD=φ]`: the fitted GMM density can
  *                    vanish far from the sampled mass, which would make
  *                    Λ₂ unbounded (see DESIGN.md §4).
  */
final case class GbdaModel(
    tauHat: Int,
    nVertexLabels: Int,
    nEdgeLabels: Int,
    gedPrior: Map[Long, Array[Double]],
    gmm: Gmm,
    minGbdPrior: Double = 1e-9) extends Serializable {
  require(tauHat >= 0)

  /** Per-model memo of Φ(gbd, v): Λ₁ depends only on (τ, φ, v) for fixed
    * alphabets, so a database scan repeats few distinct (gbd, v) pairs —
    * the same redundancy-elimination idea as the paper's Eq. (28).
    * Transient: each executor rebuilds its own cache after broadcast.
    */
  @transient lazy val phiMemo: java.util.concurrent.ConcurrentHashMap[java.lang.Long, java.lang.Double] =
    new java.util.concurrent.ConcurrentHashMap[java.lang.Long, java.lang.Double]()

  def prGbd(phi: Int): Double = math.max(minGbdPrior, gmm.intervalProb(phi.toDouble))

  /** Prior for a given extended size; computes on the fly if untabulated. */
  def gedPriorForV(v: Long): Array[Double] =
    gedPrior.getOrElse(v, JeffreysPrior.forV(v, tauHat, nVertexLabels, nEdgeLabels))

  /** Re-target the model to a different similarity threshold: the GMM GBD
    * prior is τ̂-independent, but the Jeffreys table `F(τ,v)` is normalized
    * over τ ∈ [0, τ̂] with φ ∈ [0, 2τ̂], so it must be re-tabulated.
    */
  def withTauHat(newTauHat: Int, vs: Seq[Long]): GbdaModel =
    copy(tauHat = newTauHat,
      gedPrior = JeffreysPrior.table(vs ++ gedPrior.keys, newTauHat, nVertexLabels, nEdgeLabels))

  /** Copy with the prior table guaranteed to cover every v in `vs`. */
  def ensureVs(vs: Seq[Long]): GbdaModel = {
    val missing = vs.distinct.filterNot(gedPrior.contains)
    if (missing.isEmpty) this
    else copy(gedPrior = gedPrior ++ missing.map(v =>
      v -> JeffreysPrior.forV(v, tauHat, nVertexLabels, nEdgeLabels)))
  }
}

/** Steps 3–4 of Algorithm 1 (the per-graph online decision), shared between
  * the driver-side reference search and the Spark UDF in
  * [[repro.spark.GbdaSearch]].
  */
object Gbda {

  /** Φ = Pr[GED(Q,G) ≤ τ̂ | GBD(Q,G) = φ] = Σ_{τ=0}^{τ̂} Λ₁·Λ₂ (Eq. 3),
    * clamped to [0,1]. Zero immediately for φ > 3τ̂ (Λ₁ vanishes there).
    *
    * @param v extended size |V₁'| = max(|V_Q|, |V_G|) of the pair
    */
  def phi(gbd: Int, v: Long, model: GbdaModel): Double = {
    require(gbd >= 0, s"GBD must be non-negative, got $gbd")
    if (gbd > 3L * model.tauHat) return 0.0
    val key = java.lang.Long.valueOf((gbd.toLong << 44) | v)
    val cached = model.phiMemo.get(key)
    if (cached != null) return cached.doubleValue
    val p = ModelParams(v, model.nVertexLabels, model.nEdgeLabels)
    val prior = model.gedPriorForV(v)
    val prG = model.prGbd(gbd)
    var acc = 0.0
    var tau = 0
    while (tau <= model.tauHat) {
      acc += BranchModel.lambda1(tau, gbd, p) * (prior(tau) / prG)
      tau += 1
    }
    val res = math.min(1.0, math.max(0.0, acc))
    model.phiMemo.put(key, java.lang.Double.valueOf(res))
    res
  }

  /** Steps 3–4 for one database graph G against the query Q: returns
    * `(φ, Φ)` with `φ = GBD(Q,G)` and Φ evaluated at the extended size
    * `v = max(|V_Q|, |V_G|)`.
    */
  def score(nv: Int, branches: Array[String], queryN: Int, queryBranches: Array[String],
      model: GbdaModel): (Int, Double) = {
    val gbd = GbdaOps.gbdFromSortedBranches(branches, queryBranches)
    (gbd, phi(gbd, math.max(nv, queryN).toLong, model))
  }

  /** Driver-side reference of the full Algorithm 1 loop over a database of
    * (id, |V|, sorted branch multiset) triples; returns (id, gbd, Φ) for the
    * graphs passing `Φ ≥ γ`. Used by tests as the ground truth for the
    * distributed search.
    */
  def search(
      db: Seq[(Long, Int, Array[String])],
      queryN: Int,
      queryBranches: Array[String],
      model: GbdaModel,
      gamma: Double): Seq[(Long, Int, Double)] =
    db.flatMap { case (id, nv, branches) =>
      val (gbd, p) = score(nv, branches, queryN, queryBranches, model)
      if (p >= gamma) Some((id, gbd, p)) else None
    }
}

/** Branch-multiset primitives shared by the in-memory and Spark paths.
  * (Lives in `core` so `Gbda.search` has no dependency on the graph model.)
  */
object GbdaOps {

  /** GBD from two *sorted* branch-signature multisets (Def. 4):
    * max(|B₁|,|B₂|) − |B₁ ∩ B₂|, two-pointer intersection — the
    * max(m₁,m₂)-comparison bound the paper cites.
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
}
