package repro.core

/** One-dimensional Gaussian Mixture Model — the GBD prior of Section 5.2.1.
  *
  * `Pr[GBD = φ]` is the continuity-corrected integral of the mixture density
  * over [φ−0.5, φ+0.5] (Eq. 15).
  */
final case class Gmm(weights: Array[Double], means: Array[Double], sigmas: Array[Double])
    extends Serializable {
  require(weights.length == means.length && means.length == sigmas.length && weights.nonEmpty)

  def k: Int = weights.length

  /** `Pr[GBD = φ]` by continuity correction over [φ−0.5, φ+0.5] (Eq. 15). */
  def intervalProb(phi: Double): Double = {
    var s = 0.0
    var i = 0
    while (i < k) {
      s += weights(i) * (Combinatorics.normCdf(phi + 0.5, means(i), sigmas(i)) -
        Combinatorics.normCdf(phi - 0.5, means(i), sigmas(i)))
      i += 1
    }
    s
  }
}

object Gmm {

  /** EM iterations of [[fit]]. */
  val Iters = 100

  /** Floor on a component's std-dev: GBDs are integers, so a half-unit floor
    * keeps the continuity correction sane and prevents collapsed components.
    */
  val MinSigma = 0.5

  /** Fit `k` components by [[Iters]] rounds of EM with quantile initialization. */
  def fit(xs: Array[Double], k: Int): Gmm = {
    require(xs.nonEmpty, "cannot fit a GMM on an empty sample")
    require(k >= 1)
    val n = xs.length
    val kk = math.min(k, n)
    val sorted = xs.sorted
    val means = Array.tabulate(kk)(i => sorted(math.min(n - 1, ((i + 0.5) / kk * n).toInt)))
    val mean = xs.sum / n
    val std = math.max(MinSigma, math.sqrt(xs.map(x => (x - mean) * (x - mean)).sum / n))
    val sig = Array.fill(kk)(std)
    val w = Array.fill(kk)(1.0 / kk)

    val resp = new Array[Double](kk)
    var it = 0
    while (it < Iters) {
      val sumW = new Array[Double](kk)
      val sumWX = new Array[Double](kk)
      val sumWX2 = new Array[Double](kk)
      var i = 0
      while (i < n) {
        val x = xs(i)
        var tot = 0.0
        var j = 0
        while (j < kk) {
          resp(j) = w(j) * Combinatorics.normPdf(x, means(j), sig(j))
          tot += resp(j)
          j += 1
        }
        if (tot <= 0 || tot.isNaN) { java.util.Arrays.fill(resp, 1.0 / kk); tot = 1.0 }
        j = 0
        while (j < kk) {
          val r = resp(j) / tot
          sumW(j) += r; sumWX(j) += r * x; sumWX2(j) += r * x * x
          j += 1
        }
        i += 1
      }
      var j = 0
      while (j < kk) {
        val nw = math.max(sumW(j), 1e-9)
        means(j) = sumWX(j) / nw
        sig(j) = math.max(MinSigma, math.sqrt(math.max(0.0, sumWX2(j) / nw - means(j) * means(j))))
        w(j) = nw / n
        j += 1
      }
      val z = w.sum
      j = 0
      while (j < kk) { w(j) /= z; j += 1 }
      it += 1
    }
    Gmm(w, means, sig)
  }
}
