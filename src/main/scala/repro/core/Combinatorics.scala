package repro.core

/** Numeric special functions used by the probabilistic model of Section 5.
  *
  * Everything here is pure, allocation-free and safe inside Spark tasks. The
  * paper's complexity analysis assumes O(1) combinational numbers (via
  * Stirling); we get the same via Lanczos `lgamma`, which additionally gives
  * the Γ-continuation needed for the Jeffreys-prior derivatives (Eq. 16–23).
  */
object Combinatorics {

  private val LanczosG = 7.0
  private val LanczosCoef: Array[Double] = Array(
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)

  /** log Γ(x) for x > 0 (Lanczos, g=7, 9 coefficients; ~1e-13 relative). */
  def lgamma(x: Double): Double = {
    require(x > 0, s"lgamma requires x > 0, got $x")
    val z = x - 1
    var a = LanczosCoef(0)
    var i = 1
    while (i < 9) { a += LanczosCoef(i) / (z + i); i += 1 }
    val t = z + LanczosG + 0.5
    0.5 * math.log(2 * math.Pi) + (z + 0.5) * math.log(t) - t + math.log(a)
  }

  /** Digamma ψ(x) for x > 0 (recurrence below 12, then asymptotic series). */
  def digamma(x0: Double): Double = {
    require(x0 > 0, s"digamma requires x > 0, got $x0")
    var x = x0
    var acc = 0.0
    while (x < 12) { acc -= 1 / x; x += 1 }
    val inv = 1 / x
    val inv2 = inv * inv
    acc + math.log(x) - 0.5 * inv -
      inv2 * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 / 240)))
  }

  /** log C(n,k); NegativeInfinity outside the support 0 ≤ k ≤ n.
    *
    * For small integer k (or n−k) the exact product form is used: with
    * n ~ 5·10⁹ (complete-graph edge slots at v=10⁵) the Lanczos route
    * differences lgammas of magnitude ~10¹¹ and loses ~6 digits.
    */
  def logBinom(n: Double, k: Double): Double = {
    if (k < 0 || k > n) return Double.NegativeInfinity
    val ki = math.rint(k)
    val integral = math.abs(k - ki) < 1e-9 && math.rint(n) == n
    if (integral && ki <= 64) {
      var s = 0.0
      var i = 1
      while (i <= ki) { s += math.log((n - ki + i) / i); i += 1 }
      s
    } else if (integral && n - ki <= 64) {
      logBinom(n, n - ki)
    } else lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
  }

  /** C(n,k) as a Double (0 outside support; exact to ~1e-13 relative). */
  def binom(n: Double, k: Double): Double = {
    val l = logBinom(n, k)
    if (l == Double.NegativeInfinity) 0.0 else math.exp(l)
  }

  /** Hypergeometric pmf H(x; M, K, N) = C(K,x)·C(M−K,N−x)/C(M,N) (Eq. 12). */
  def hyper(x: Double, M: Double, K: Double, N: Double): Double = {
    val denom = logBinom(M, N)
    if (denom == Double.NegativeInfinity) 0.0
    else {
      val l = logBinom(K, x) + logBinom(M - K, N - x) - denom
      if (l == Double.NegativeInfinity || l.isNaN) 0.0 else math.exp(l)
    }
  }

  /** Error function (Numerical Recipes erfc approximation, |err| ≤ 1.2e-7). */
  def erf(x: Double): Double = {
    val z = math.abs(x)
    val t = 1.0 / (1.0 + 0.5 * z)
    val ans = t * math.exp(
      -z * z - 1.26551223 + t * (1.00002368 + t * (0.37409196 + t * (0.09678418 +
        t * (-0.18628806 + t * (0.27886807 + t * (-1.13520398 + t * (1.48851587 +
          t * (-0.82215223 + t * 0.17087277)))))))))
    if (x >= 0) 1 - ans else ans - 1
  }

  /** CDF of N(mu, sigma) at x. */
  def normCdf(x: Double, mu: Double, sigma: Double): Double =
    0.5 * (1 + erf((x - mu) / (sigma * math.sqrt(2.0))))

  /** PDF of N(mu, sigma) at x. */
  def normPdf(x: Double, mu: Double, sigma: Double): Double = {
    val z = (x - mu) / sigma
    math.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.Pi))
  }
}
