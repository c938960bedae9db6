package repro.core

import org.scalatest.funsuite.AnyFunSuite

import BranchModel._
import Combinatorics.{binom, logBinom}

/** Validates Theorem 3 (Ω₁..Ω₄, Λ₁) against the paper's Example 6, the
  * model's normalization identities, Monte-Carlo simulations of the
  * underlying combinatorial experiments, and finite-difference checks of
  * the analytic derivatives.
  */
class BranchModelSpec extends AnyFunSuite {

  /** Example 6 parameters: v=|V₁'|=4, |L_V|=|L_E|=3 → D=60 (Eq. 13). */
  private val pEx6 = ModelParams(4, 3, 3)

  test("Eq. (13): D = 60 for Example 6's parameters") {
    assert(math.abs(math.exp(pEx6.logD) - 60.0) < 1e-9)
    assert(math.abs(math.exp(pEx6.logDm1) - 59.0) < 1e-9)
  }

  test("Example 6: Lambda1(2,3) = 0.5113 (paper's printed value)") {
    assert(math.abs(lambda1(2, 3, pEx6) - 0.5113) < 2e-3)
  }

  test("Example 6: Lambda1(3,3) = 0.5631 (paper's printed value)") {
    assert(math.abs(lambda1(3, 3, pEx6) - 0.5631) < 2e-3)
  }

  test("Example 6: Lambda1(0,3) = Lambda1(1,3) = 0") {
    assert(lambda1(0, 3, pEx6) == 0.0)
    assert(lambda1(1, 3, pEx6) == 0.0)
  }

  test("Lambda1(0,0) = 1 (no edits, branches identical)") {
    assert(lambda1(0, 0, pEx6) == 1.0)
  }

  test("Lambda1 hand-computed value for Example 6 (0.51126)") {
    // independent hand derivation (see DESIGN.md §3): (1/3)(0.8)q^3 +
    // (1/3)(0.2)·4·59^3/60^4 + (8/15)(0.5)q^3 with q = 59/60
    val q3 = math.pow(59.0 / 60, 3)
    val expected = (1.0 / 3) * 0.8 * q3 + (1.0 / 3) * 0.2 * (4 * math.pow(59.0, 3) / math.pow(60.0, 4)) +
      (8.0 / 15) * 0.5 * q3
    assert(math.abs(lambda1(2, 3, pEx6) - expected) < 1e-12)
  }

  test("lambda1Matrix rows equal the direct triple sum of Eq. (7)") {
    for (v <- Seq(4L, 9L, 40L)) {
      val p = ModelParams(v, 3, 2)
      val (l1, dl1) = lambda1Matrix(5, p)
      assert(l1.length == 6 && dl1.length == 6)
      for (tau <- 1 to 5; phi <- 0 to 10) {
        assert(l1(tau).length == 11 && dl1(tau).length == 11)
        var direct = 0.0
        var dDirect = 0.0
        for (x <- 0 to math.min(tau.toLong, v).toInt; m <- 0 to math.min(2L * (tau - x), v).toInt;
             r <- math.max(x, m) to math.min((x + m).toLong, v).toInt) {
          val (o1, d1) = omega1(x, tau, p)
          val (o2, d2) = omega2(m, x, tau, p)
          val o34 = omega3(r, phi, p) * omega4(x, r, m, p)
          direct += o1 * o2 * o34
          dDirect += (d1 * o2 + o1 * d2) * o34
        }
        assert(math.abs(l1(tau)(phi) - direct) < 1e-13, s"v=$v tau=$tau phi=$phi")
        assert(math.abs(dl1(tau)(phi) - dDirect) < 1e-13,
          s"v=$v tau=$tau phi=$phi d=${dl1(tau)(phi)} direct=$dDirect")
        assert(lambda1(tau, phi, p) == l1(tau)(phi), s"v=$v tau=$tau phi=$phi")
      }
    }
  }

  test("Lambda1 and its derivative vanish for phi > 2*tau") {
    val (l1, dl1) = lambda1Matrix(8, pEx6)
    for (tau <- 1 to 4) {
      for (phi <- 2 * tau + 1 to 16)
        assert(l1(tau)(phi) == 0.0 && dl1(tau)(phi) == 0.0, s"tau=$tau phi=$phi")
      for (phi <- 2 * tau + 1 to 3 * tau + 1)
        assert(lambda1(tau, phi, pEx6) == 0.0, s"tau=$tau phi=$phi")
    }
  }

  /** Λ₁ and ∂Λ₁/∂τ at one τ for φ ∈ [0, φMax] by the per-τ pass of Eq. (7)
    * that re-evaluates Ω₂, Ω₃ and Ω₄ for every τ: the reference that
    * [[BranchModel.lambda1Matrix]]'s once-per-size tables must reproduce bit
    * for bit, since they run the same accumulation in the same order.
    */
  private def lambda1RowPerTau(tau: Int, phiMax: Int, p: ModelParams): (Array[Double], Array[Double]) = {
    val row = new Array[Double](phiMax + 1)
    val dRow = new Array[Double](phiMax + 1)
    val top = math.min(phiMax, 2 * tau)
    val o3 = Array.tabulate(math.min(2L * tau, p.v).toInt + 1, top + 1)(omega3(_, _, p))
    for (x <- 0 to math.min(tau.toLong, p.v).toInt; (o1, d1) = omega1(x, tau, p) if o1 > 0) {
      val accX = new Array[Double](top + 1)
      val dAccX = new Array[Double](top + 1)
      for (m <- 0 to math.min(2L * (tau - x), p.v).toInt; (o2, d2) = omega2(m, x, tau, p)
           if o2 > 0 || d2 != 0) {
        val accM = new Array[Double](top + 1)
        for (r <- math.max(x, m) to math.min((x + m).toLong, p.v).toInt) {
          val o4 = omega4(x, r, m, p)
          for (phi <- 0 to math.min(top, r)) accM(phi) += o3(r)(phi) * o4
        }
        for (phi <- 0 to top) {
          accX(phi) += o2 * accM(phi)
          dAccX(phi) += d2 * accM(phi)
        }
      }
      for (phi <- 0 to top) {
        row(phi) += o1 * accX(phi)
        dRow(phi) += d1 * accX(phi) + o1 * dAccX(phi)
      }
    }
    (row, dRow)
  }

  test("lambda1Matrix is bit-identical to the per-tau pass of Eq. (7)") {
    for (v <- (1L to 60L) ++ Seq(100L, 2000L, 20000L, 100000L);
         (nVL, nEL) <- Seq((1, 1), (10, 3), (50, 280)); tauHat <- Seq(0, 1, 5, 10)) {
      val p = ModelParams(v, nVL, nEL)
      val (l1, dl1) = lambda1Matrix(tauHat, p)
      val (want, dWant) = Array.tabulate(tauHat + 1)(lambda1RowPerTau(_, 2 * tauHat, p)).unzip
      assert(l1.length == tauHat + 1 && dl1.length == tauHat + 1)
      for (tau <- 0 to tauHat) {
        val at = s"v=$v alphabets=($nVL,$nEL) tauHat=$tauHat tau=$tau"
        assert(java.util.Arrays.equals(l1(tau), want(tau)), s"$at: ${l1(tau).toSeq} != ${want(tau).toSeq}")
        assert(java.util.Arrays.equals(dl1(tau), dWant(tau)), s"$at: ${dl1(tau).toSeq} != ${dWant(tau).toSeq}")
      }
    }
  }

  // --------------------------------------------------- normalization laws

  private val normParams = for {
    v <- Seq(4L, 6L, 10L, 25L)
    tau <- 1 to 5
  } yield (v, tau)

  for ((v, tau) <- normParams) {
    val p = ModelParams(v, 3, 3)

    test(s"Omega1 sums to 1 over x (v=$v, tau=$tau)") {
      val s = (0 to tau).map(omega1(_, tau, p)._1).sum
      assert(math.abs(s - 1.0) < 1e-9, s"sum=$s")
    }

    test(s"Omega2 sums to 1 over m for each x (v=$v, tau=$tau)") {
      for (x <- 0 to tau) {
        val s = (0 to math.min(2 * (tau - x), v.toInt)).map(omega2(_, x, tau, p)._1).sum
        assert(math.abs(s - 1.0) < 1e-8, s"x=$x sum=$s")
      }
    }

    test(s"Lambda1 sums to 1 over phi (v=$v, tau=$tau)") {
      val s = (0 to 3 * tau).map(lambda1(tau, _, p)).sum
      assert(math.abs(s - 1.0) < 1e-8, s"sum=$s")
    }
  }

  for (r <- 0 to 10)
    test(s"Omega3 sums to 1 over phi (r=$r)") {
      val s = (0 to r).map(omega3(r, _, pEx6)).sum
      assert(math.abs(s - 1.0) < 1e-9, s"sum=$s")
    }

  for (v <- Seq(5L, 12L); x <- Seq(1, 3); m <- Seq(0, 2, 4))
    test(s"Omega4 sums to 1 over r (v=$v, x=$x, m=$m)") {
      val p = ModelParams(v, 3, 3)
      val s = (0 to (x + m)).map(omega4(x, _, m, p)).sum
      assert(math.abs(s - 1.0) < 1e-9, s"sum=$s")
    }

  test("Omega3 with a huge D concentrates at phi = r") {
    val p = ModelParams(100000L, 10, 5)
    assert(omega3(5, 5, p) > 0.999)
    assert(omega3(5, 4, p) < 1e-3)
  }

  // ---------------------------------------------------------- Monte Carlo

  test("Omega2 matches Monte-Carlo simulation (v=8, x'=3)") {
    val p = ModelParams(8, 3, 3)
    val tau = 3; val x = 0 // x' = 3 random edges of K8
    val rng = new scala.util.Random(42)
    val n = 8
    val allEdges = for (i <- 0 until n; j <- i + 1 until n) yield (i, j)
    val trials = 60000
    val counts = new Array[Int](2 * tau + 1)
    (1 to trials).foreach { _ =>
      val chosen = rng.shuffle(allEdges.toList).take(tau)
      val covered = chosen.flatMap(e => Seq(e._1, e._2)).toSet.size
      counts(covered) += 1
    }
    for (m <- 0 to 2 * tau) {
      val emp = counts(m).toDouble / trials
      val model = omega2(m, x, tau, p)._1
      assert(math.abs(emp - model) < 0.01, s"m=$m emp=$emp model=$model")
    }
  }

  test("Omega4 matches Monte-Carlo simulation (v=10, m=4, x=3)") {
    val p = ModelParams(10, 3, 3)
    val rng = new scala.util.Random(7)
    val trials = 60000
    val counts = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
    (1 to trials).foreach { _ =>
      val zSet = rng.shuffle((0 until 10).toList).take(4).toSet
      val xSet = rng.shuffle((0 until 10).toList).take(3).toSet
      val r = (zSet ++ xSet).size
      counts(r) += 1
    }
    for (r <- 4 to 7) {
      val emp = counts(r).toDouble / trials
      assert(math.abs(emp - omega4(3, r, 4, p)) < 0.01, s"r=$r emp=$emp model=${omega4(3, r, 4, p)}")
    }
  }

  test("Omega3 matches Monte-Carlo ball-pair colouring (D=6, r=4)") {
    // Lemma 3's experiment: r independent pairs, each side uniformly one of
    // D colours; phi = #pairs with different colours.
    val p = ModelParams(3, 2, 1) // D = |L_V| * C(3+1-1, 1) = 2*3 = 6
    assert(math.abs(math.exp(p.logD) - 6.0) < 1e-9)
    val rng = new scala.util.Random(11)
    val trials = 80000
    val r = 4
    val counts = new Array[Int](r + 1)
    (1 to trials).foreach { _ =>
      var phi = 0
      (1 to r).foreach(_ => if (rng.nextInt(6) != rng.nextInt(6)) phi += 1)
      counts(phi) += 1
    }
    for (phi <- 0 to r) {
      val emp = counts(phi).toDouble / trials
      assert(math.abs(emp - omega3(r, phi, p)) < 0.01, s"phi=$phi emp=$emp model=${omega3(r, phi, p)}")
    }
  }

  test("Lambda1 matches a full Monte-Carlo of the edit-process model (v=5)") {
    // Simulate the Section-5 generative process exactly as modelled:
    // choose x vertices + tau-x edges uniformly among all subsets of that
    // shape, collect touched branches R, then each relabelled branch differs
    // with prob (D-1)/D independently; GBD = #differing branches.
    val p = ModelParams(5, 3, 3)
    val tau = 3
    val rng = new scala.util.Random(23)
    val n = 5
    val allEdges = (for (i <- 0 until n; j <- i + 1 until n) yield (i, j)).toArray
    val d = math.exp(p.logD)
    val trials = 100000
    val counts = new Array[Int](3 * tau + 2)
    (1 to trials).foreach { _ =>
      // uniform over (vertex+edge) subsets of size tau: sample tau slots
      // without replacement from v + C(v,2) positions
      val slots = rng.shuffle((0 until (n + allEdges.length)).toList).take(tau)
      val verts = slots.filter(_ < n).toSet
      val edges = slots.filter(_ >= n).map(s => allEdges(s - n))
      val touched = verts ++ edges.flatMap(e => Seq(e._1, e._2)).toSet
      var phi = 0
      touched.foreach(_ => if (rng.nextDouble() < (d - 1) / d) phi += 1)
      counts(phi) += 1
    }
    for (phi <- 0 to 3 * tau) {
      val emp = counts(phi).toDouble / trials
      assert(math.abs(emp - lambda1(tau, phi, p)) < 0.012,
        s"phi=$phi emp=$emp model=${lambda1(tau, phi, p)}")
    }
  }

  // ----------------------------------------------------------- derivatives

  /** Γ-continued log C(n,k) without the support clamp (requires k > −1 and
    * n−k > −1).
    */
  private def logBinomCont(n: Double, k: Double): Double =
    Combinatorics.lgamma(n + 1) - Combinatorics.lgamma(k + 1) - Combinatorics.lgamma(n - k + 1)

  /** Γ-continuation of Ω₁ to real τ. Intentionally unclamped: at support
    * boundaries (e.g. τ−x=0) the smooth continuation is what the analytic
    * digamma derivative differentiates.
    */
  private def omega1Cont(x: Int, tau: Double, p: ModelParams): Double = {
    val l = logBinom(p.v.toDouble, x.toDouble) + logBinomCont(p.e, tau - x) -
      logBinomCont(p.v + p.e, tau)
    if (l == Double.NegativeInfinity || l.isNaN) 0.0 else math.exp(l)
  }

  private def omega2Cont(m: Int, x: Int, tauR: Double, tauInt: Int, p: ModelParams): Double = {
    val xpInt = tauInt - x
    val xp = tauR - x
    var s = 0.0
    for (t <- 0 to m) {
      val ct2 = t.toDouble * (t - 1) / 2
      if (binom(ct2, xpInt.toDouble) != 0.0) { // support frozen at the integer point
        val sign = if (((m - t) & 1) == 1) -1.0 else 1.0
        // unclamped Γ-continuation in x' (see omega1Cont)
        s += sign * binom(m.toDouble, t.toDouble) *
          math.exp(logBinomCont(ct2, xp) - logBinomCont(p.e, xp) +
            logBinom(p.v.toDouble, m.toDouble))
      }
    }
    s
  }

  private val derivParams = for {
    tau <- 1 to 4
    x <- 0 to tau
  } yield (tau, x)

  for ((tau, x) <- derivParams)
    test(s"dOmega1 matches finite difference (v=6, tau=$tau, x=$x)") {
      val p = ModelParams(6, 3, 3)
      val h = 1e-5
      val fd = (omega1Cont(x, tau + h, p) - omega1Cont(x, tau - h, p)) / (2 * h)
      val an = omega1(x, tau, p)._2
      assert(math.abs(fd - an) < 1e-5 * math.max(1.0, math.abs(an)), s"fd=$fd analytic=$an")
    }

  for ((tau, x) <- derivParams; m <- Seq(1, 2, 2 * (tau - x)).distinct if m >= 0 && m <= 2 * (tau - x))
    test(s"dOmega2 matches finite difference (v=6, tau=$tau, x=$x, m=$m)") {
      val p = ModelParams(6, 3, 3)
      val h = 1e-5
      val fd = (omega2Cont(m, x, tau + h, tau, p) - omega2Cont(m, x, tau - h, tau, p)) / (2 * h)
      val an = omega2(m, x, tau, p)._2
      assert(math.abs(fd - an) < 1e-4 * math.max(1.0, math.abs(an)), s"fd=$fd analytic=$an")
    }

  // d log Lambda1 / d tau, taken from lambda1Matrix's derivative rows as dRow / row.
  test("dLogLambda1 matches finite difference of the continued Lambda1") {
    val p = ModelParams(6, 3, 3)
    def lambda1Cont(tauR: Double, tauInt: Int, phi: Int): Double = {
      var acc = 0.0
      for (x <- 0 to tauInt) {
        val o1 = omega1Cont(x, tauR, p)
        var accX = 0.0
        for (m <- 0 to math.min(2 * (tauInt - x), p.v.toInt)) {
          var accM = 0.0
          for (r <- math.max(x, m) to math.min(x + m, p.v.toInt))
            accM += omega3(r, phi, p) * omega4(x, r, m, p)
          accX += omega2Cont(m, x, tauR, tauInt, p) * accM
        }
        acc += o1 * accX
      }
      acc
    }
    val h = 1e-5
    // tau = 0 included: the derivative is not zero there (digamma terms).
    val (l1, dl1) = lambda1Matrix(4, p)
    for (tau <- 0 to 4) {
      val (row, dRow) = (l1(tau), dl1(tau))
      for (phi <- 0 to 2 * tau if row(phi) > 1e-12) {
        val fd = (math.log(lambda1Cont(tau + h, tau, phi)) - math.log(lambda1Cont(tau - h, tau, phi))) / (2 * h)
        val an = dRow(phi) / row(phi)
        assert(math.abs(fd - an) < 1e-3 * math.max(1.0, math.abs(an)),
          s"tau=$tau phi=$phi fd=$fd analytic=$an")
      }
    }
  }

  test("model scales to large v without numeric blowups") {
    for (v <- Seq(1000L, 100000L)) {
      val p = ModelParams(v, 10, 5)
      for (tau <- 0 to 5; phi <- 0 to 3 * tau) {
        val l = lambda1(tau, phi, p)
        assert(l >= -1e-12 && l <= 1 + 1e-9 && !l.isNaN, s"v=$v tau=$tau phi=$phi l=$l")
      }
      val s = (0 to 9).map(lambda1(3, _, p)).sum
      assert(math.abs(s - 1.0) < 1e-6, s"v=$v sum=$s")
    }
  }
}
