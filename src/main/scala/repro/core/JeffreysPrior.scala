package repro.core

/** Jeffreys (non-informative) prior of GEDs, Section 5.2.2.
  *
  * `Pr[GED=τ] ∝ sqrt( Σ_φ Λ₁(τ,φ) · (d/dτ log Λ₁(τ,φ))² )` (Eq. 16), with
  * φ ranging over {0,…,2τ̂} (one edit operation changes at most two branches)
  * and τ over {0,…,τ̂}. Per the paper, the value depends only on τ and
  * `v = |V₁'|`, so it is tabulated per distinct v — `F(τ, |V₁'|)`, Eq. (24).
  */
object JeffreysPrior {

  /** Unnormalized sqrt-Fisher-information values for τ ∈ [0, τ̂], from the
    * Λ₁ matrix `l1(τ)(φ)` and its τ-derivative `dl1` of
    * [[BranchModel.lambda1Matrix]], with d/dτ log Λ₁ = ∂Λ₁ / Λ₁ per cell.
    */
  private[core] def raw(l1: Array[Array[Double]], dl1: Array[Array[Double]]): Array[Double] =
    Array.tabulate(l1.length) { tau =>
      val row = l1(tau)
      math.sqrt(row.indices.filter(row(_) > 0).map { phi =>
        val d = dl1(tau)(phi) / row(phi)
        row(phi) * d * d
      }.sum)
    }

  /** `F(τ, v)` for all τ ∈ [0, τ̂] from the matrices of [[raw]], normalized
    * so the entries sum to 1. Falls back to the uniform distribution if the
    * information degenerates.
    */
  def fromLambda1(l1: Array[Array[Double]], dl1: Array[Array[Double]]): Array[Double] = {
    val r = raw(l1, dl1)
    val z = r.sum
    if (z <= 0 || z.isNaN || z.isInfinite) Array.fill(r.length)(1.0 / r.length)
    else r.map(_ / z)
  }

  /** `F(τ, v)` for all τ ∈ [0, τ̂]. */
  def forV(v: Long, tauHat: Int, nVertexLabels: Int, nEdgeLabels: Int): Array[Double] = {
    val (l1, dl1) = BranchModel.lambda1Matrix(tauHat, ModelParams(v, nVertexLabels, nEdgeLabels))
    fromLambda1(l1, dl1)
  }
}
