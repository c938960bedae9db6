package repro.core

import Combinatorics._

/** Parameters of the Section-5 probabilistic model for one graph pair.
  *
  * @param v             `|V₁'|` — vertex count of the extended graphs, i.e.
  *                      `max(|V_Q|, |V_G|)` for the pair under comparison.
  * @param nVertexLabels `|L_V|`, size of the vertex-label alphabet.
  * @param nEdgeLabels   `|L_E|`, size of the edge-label alphabet.
  */
final case class ModelParams(v: Long, nVertexLabels: Int, nEdgeLabels: Int) extends Serializable {
  require(v >= 1, s"need at least one vertex, got $v")
  require(nVertexLabels >= 1 && nEdgeLabels >= 1, "label alphabets must be non-empty")

  /** Number of edge slots of the complete extended graph G₁' = C(v,2). */
  val e: Double = v.toDouble * (v - 1) / 2.0

  /** log D, Eq. (13): D = |L_V| · C(v + |L_E| − 1, |L_E|), the number of
    * possible branch types. (Eq. 13 — not the Lemma-3 prose variant — is
    * what reproduces the paper's Example 6 numbers; see DESIGN.md §4.)
    */
  val logD: Double = math.log(nVertexLabels.toDouble) +
    logBinom(v.toDouble + nEdgeLabels - 1, nEdgeLabels.toDouble)

  /** log(D − 1), computed stably even when D overflows a Double. */
  val logDm1: Double = {
    val d = math.exp(logD)
    if (d.isInfinite || d > 1e15) logD + math.log1p(-math.exp(-logD))
    else if (d <= 1.0) Double.NegativeInfinity
    else math.log(d - 1)
  }
}

/** Closed forms of Theorem 3: `Λ₁(τ,φ) = Pr[GBD = φ | GED = τ]` over the
  * extended graph pair, decomposed as Ω₁..Ω₄ (Lemmas 1–4), plus the exact
  * τ-derivatives needed by the Jeffreys prior (Section 5.2.2).
  */
object BranchModel {

  /** Ω₁(x,τ) = Pr[X=x | GED=τ] = H(x; v + C(v,2), v, τ) — Lemma 1:
    * probability that a random minimal edit sequence relabels exactly `x`
    * vertices (and τ−x edges) — and its τ-derivative, exact for the
    * Γ-continued form: ∂Ω₁ = Ω₁·[ψ(τ+1) − ψ(τ−x+1) + ψ(E−τ+x+1) − ψ(v+E−τ+1)].
    */
  def omega1(x: Int, tau: Int, p: ModelParams): (Double, Double) = {
    val o1 = hyper(x.toDouble, p.v + p.e, p.v.toDouble, tau.toDouble)
    if (o1 == 0.0) (0.0, 0.0)
    else {
      val xp = tau - x
      val g = digamma(tau + 1.0) - digamma(xp + 1.0) +
        digamma(p.e - xp + 1.0) - digamma(p.v + p.e - tau + 1.0)
      (o1, o1 * g)
    }
  }

  /** Ω₂(m,x,τ) = Pr[Z=m | Y=τ−x] — Lemma 2: probability that τ−x randomly
    * chosen distinct edges of the complete extended graph cover exactly `m`
    * vertices — and its τ-derivative, from one pass over the
    * inclusion–exclusion terms t ∈ [0, m]. Each sum is evaluated in linear
    * space (magnitudes are bounded for m ≤ 2τ̂; see DESIGN.md §5), then
    * scaled by exp(logC(v,m) − logC(E,τ−x)). For ∂Ω₂ each non-zero term is
    * weighted by ψ(C(t,2)−(τ−x)+1) − ψ(E−(τ−x)+1); terms with empty support
    * are dropped, matching the convention of the paper's Eq. (19). At τ−x = 0
    * only m = t = 0 survives, so Ω₂ = 1 there.
    */
  def omega2(m: Int, x: Int, tau: Int, p: ModelParams): (Double, Double) = {
    val xp = tau - x
    if (xp < 0 || m < 0 || m > p.v || m > 2L * xp) return (0.0, 0.0)
    var inner = 0.0
    var dInner = 0.0
    var any = false
    var t = 0
    while (t <= m) {
      val ct2 = t.toDouble * (t - 1) / 2
      val term = binom(m.toDouble, t.toDouble) * binom(ct2, xp.toDouble)
      if (term != 0.0) {
        val w = digamma(ct2 - xp + 1.0) - digamma(p.e - xp + 1.0)
        val signed = if (((m - t) & 1) == 1) -term else term
        inner += signed
        dInner += signed * w
        any = true
      }
      t += 1
    }
    val scale = logBinom(p.v.toDouble, m.toDouble) - logBinom(p.e, xp.toDouble)
    (if (inner <= 0) 0.0 else math.exp(math.log(inner) + scale),
      if (any) dInner * math.exp(scale) else 0.0)
  }

  /** Ω₃(r,φ) = Pr[GBD=φ | R=r] = C(r, r−φ)·(D−1)^φ / D^r — Lemma 3: of the
    * `r` relabelled branches, exactly φ end up different from the originals.
    */
  def omega3(r: Int, phi: Int, p: ModelParams): Double = {
    if (phi < 0 || phi > r) 0.0
    else {
      val lb = logBinom(r.toDouble, (r - phi).toDouble)
      if (phi == 0) math.exp(lb - r * p.logD) // avoid 0·(−∞) when D=1
      else math.exp(lb + phi * p.logDm1 - r * p.logD)
    }
  }

  /** Ω₄(x,r,m) = Pr[R=r | X=x, Z=m] = H(x+m−r; v, m, x) — Lemma 4:
    * overlap between the x relabelled vertices and the m edge-covered ones.
    */
  def omega4(x: Int, r: Int, m: Int, p: ModelParams): Double =
    hyper((x + m - r).toDouble, p.v.toDouble, m.toDouble, x.toDouble)

  /** Λ₁(τ,φ) = Pr[GBD=φ | GED=τ], Eq. (7) of Theorem 3: one entry of
    * [[lambda1Matrix]] at τ̂ = τ.
    */
  def lambda1(tau: Int, phi: Int, p: ModelParams): Double = {
    require(tau >= 0 && phi >= 0, s"tau=$tau phi=$phi must be non-negative")
    if (phi > 2L * tau) 0.0 else lambda1Matrix(tau, p)._1(tau)(phi)
  }

  /** Λ₁(τ,φ) and its τ-derivative ∂Λ₁/∂τ (Eq. 17) for τ ∈ [0, τ̂] (rows) and
    * φ ∈ [0, 2τ̂] (columns), the whole range where Λ₁ can be non-zero, in one
    * pass over the terms of Eq. (7) per τ.
    *
    * Summation ranges follow Section 6.2: x ∈ [0,τ], m ∈ [0, min(2(τ−x), v)],
    * r ∈ [max(x,m), min(x+m, v)]. Only Ω₁ depends on τ itself: Ω₂ depends on
    * τ−x alone and Ω₃, Ω₄ on neither. So Ω₃ is tabulated once per (r, φ),
    * (Ω₂, ∂Ω₂) once per (τ−x, m) and Ω₄ once per (x, m, r) for the whole
    * matrix, and (Ω₁, ∂Ω₁) is evaluated once per (τ, x) — the reuse of the
    * paper's Eq. (28). With S(φ) = Σ_r Ω₃·Ω₄, the derivative is
    * Σ_x [∂Ω₁·Σ_m Ω₂·S + Ω₁·Σ_m ∂Ω₂·S]; an m is skipped only where Ω₂ and
    * ∂Ω₂ are both zero. There is no τ = 0 shortcut: Λ₁(0, 0) = 1, but
    * ∂Λ₁(0, 0) carries the ψ terms of ∂Ω₁ and ∂Ω₂. Both rows are zero for
    * φ > 2τ, since r ≤ x + m ≤ 2τ and Ω₃ = 0 for φ > r.
    */
  def lambda1Matrix(tauHat: Int, p: ModelParams): (Array[Array[Double]], Array[Array[Double]]) = {
    def upToV(n: Long): Int = math.min(n, p.v).toInt
    val o3 = Array.tabulate(upToV(2L * tauHat) + 1, 2 * tauHat + 1)(omega3(_, _, p))
    // Ω₂(m, x, τ) reads τ−x only, so x = 0, τ = τ−x gives its value.
    val o2 = Array.tabulate(tauHat + 1)(xp => Array.tabulate(upToV(2L * xp) + 1)(omega2(_, 0, xp, p)))
    // o4(x)(m)(i) = Ω₄(x, max(x, m) + i, m).
    val o4 = Array.tabulate(upToV(tauHat) + 1) { x =>
      Array.tabulate(upToV(2L * (tauHat - x)) + 1) { m =>
        val lo = math.max(x, m)
        Array.tabulate(upToV(x + m) - lo + 1)(i => omega4(x, lo + i, m, p))
      }
    }
    val l1 = Array.ofDim[Double](tauHat + 1, 2 * tauHat + 1)
    val dl1 = Array.ofDim[Double](tauHat + 1, 2 * tauHat + 1)
    for (tau <- 0 to tauHat) {
      val (row, dRow, top) = (l1(tau), dl1(tau), 2 * tau)
      for (x <- 0 to upToV(tau); (o1, d1) = omega1(x, tau, p) if o1 > 0) {
        val accX = new Array[Double](top + 1)
        val dAccX = new Array[Double](top + 1)
        for (m <- 0 to upToV(2L * (tau - x)); (o2m, d2m) = o2(tau - x)(m) if o2m > 0 || d2m != 0) {
          val accM = new Array[Double](top + 1)
          val (o4xm, lo) = (o4(x)(m), math.max(x, m))
          for (i <- o4xm.indices) {
            val r = lo + i
            for (phi <- 0 to math.min(top, r)) accM(phi) += o3(r)(phi) * o4xm(i)
          }
          for (phi <- 0 to top) {
            accX(phi) += o2m * accM(phi)
            dAccX(phi) += d2m * accM(phi)
          }
        }
        for (phi <- 0 to top) {
          row(phi) += o1 * accX(phi)
          dRow(phi) += d1 * accX(phi) + o1 * dAccX(phi)
        }
      }
    }
    (l1, dl1)
  }
}
