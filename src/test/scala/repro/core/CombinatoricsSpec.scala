package repro.core

import org.scalatest.funsuite.AnyFunSuite

import Combinatorics._

class CombinatoricsSpec extends AnyFunSuite {

  private val Tol = 1e-9

  // ------------------------------------------------------------- lgamma

  test("lgamma matches known values") {
    assert(math.abs(lgamma(1.0)) < Tol)
    assert(math.abs(lgamma(2.0)) < Tol)
    assert(math.abs(lgamma(5.0) - math.log(24.0)) < 1e-10)
    assert(math.abs(lgamma(0.5) - 0.5 * math.log(math.Pi)) < 1e-10)
    assert(math.abs(lgamma(10.0) - math.log(362880.0)) < 1e-8)
  }

  test("lgamma satisfies the recurrence lgamma(x+1) = lgamma(x) + log(x)") {
    for (x <- Seq(0.3, 1.7, 4.2, 11.5, 123.0))
      assert(math.abs(lgamma(x + 1) - lgamma(x) - math.log(x)) < 1e-9, s"x=$x")
  }

  test("lgamma rejects non-positive input") {
    intercept[IllegalArgumentException](lgamma(0.0))
    intercept[IllegalArgumentException](lgamma(-3.0))
  }

  // ------------------------------------------------------------ digamma

  /** Euler–Mascheroni constant: ψ(1) = −γ. */
  private val EulerGamma = 0.5772156649015329

  test("digamma(1) = -EulerGamma") {
    assert(math.abs(digamma(1.0) + EulerGamma) < 1e-10)
  }

  test("digamma(2) = 1 - EulerGamma") {
    assert(math.abs(digamma(2.0) - (1 - EulerGamma)) < 1e-10)
  }

  test("digamma(0.5) = -EulerGamma - 2 ln 2") {
    assert(math.abs(digamma(0.5) + EulerGamma + 2 * math.log(2.0)) < 1e-9)
  }

  for (x <- Seq(0.25, 0.9, 1.5, 3.0, 7.7, 42.0, 500.0))
    test(s"digamma recurrence psi(x+1) = psi(x) + 1/x at x=$x") {
      assert(math.abs(digamma(x + 1) - digamma(x) - 1 / x) < 1e-9)
    }

  // ---------------------------------------------------------------- erf

  test("erf at known points") {
    assert(math.abs(erf(0.0)) < 1e-7)
    assert(math.abs(erf(1.0) - 0.8427007929497149) < 2e-7)
    assert(math.abs(erf(2.0) - 0.9953222650189527) < 2e-7)
    assert(math.abs(erf(-1.0) + 0.8427007929497149) < 2e-7)
  }

  test("erf is odd and bounded") {
    val rng = new scala.util.Random(1)
    (1 to 200).foreach { _ =>
      val x = rng.nextDouble() * 10 - 5
      assert(math.abs(erf(x) + erf(-x)) < 1e-7)
      assert(math.abs(erf(x)) <= 1.0 + 1e-12)
    }
  }

  test("normCdf at the mean is 0.5 and is monotone") {
    assert(math.abs(normCdf(3.0, 3.0, 2.0) - 0.5) < 1e-7)
    assert(normCdf(1.0, 3.0, 2.0) < normCdf(2.0, 3.0, 2.0))
    assert(normCdf(10.0, 3.0, 2.0) > 0.999)
  }

  test("normPdf integrates to ~1 (trapezoid)") {
    val h = 0.01
    val s = (-800 to 800).map(i => normPdf(i * h, 0.0, 1.0)).sum * h
    assert(math.abs(s - 1.0) < 1e-3)
  }

  // -------------------------------------------------------------- binom

  private def exactBinom(n: Int, k: Int): BigInt =
    if (k < 0 || k > n) BigInt(0)
    else (BigInt(1) to BigInt(k)).foldLeft(BigInt(1))((acc, i) => acc * (n - k + i.toInt) / i)

  for (n <- 0 to 30)
    test(s"binom matches exact Pascal row n=$n") {
      for (k <- -1 to n + 1) {
        val expected = exactBinom(n, k).toDouble
        val got = binom(n.toDouble, k.toDouble)
        if (expected == 0.0) assert(got == 0.0, s"k=$k")
        else assert(math.abs(got / expected - 1) < 1e-10, s"k=$k: got $got expected $expected")
      }
    }

  test("logBinom symmetric: C(n,k) = C(n,n-k)") {
    for (n <- Seq(5.0, 17.0, 123.0); k <- Seq(0.0, 2.0, 5.0))
      assert(math.abs(logBinom(n, k) - logBinom(n, n - k)) < 1e-9)
  }

  test("binom handles huge arguments without overflow (log space)") {
    val l = logBinom(5e9, 10.0)
    assert(l.isFinite && l > 0)
    // C(5e9, 10) ~ (5e9)^10/10! — check the log against the Stirling-free estimate
    val approx = 10 * math.log(5e9) - lgamma(11.0)
    assert(math.abs(l - approx) < 0.01)
  }

  // -------------------------------------------------------------- hyper

  private val hyperParams = for {
    m <- Seq(6, 10, 20)
    k <- Seq(2, 4, m / 2)
    nn <- Seq(1, 3, 5)
  } yield (m, k, nn)

  for ((mm, kk, nn) <- hyperParams.distinct)
    test(s"hypergeometric pmf sums to 1 for M=$mm K=$kk N=$nn") {
      val s = (0 to nn).map(x => hyper(x.toDouble, mm.toDouble, kk.toDouble, nn.toDouble)).sum
      assert(math.abs(s - 1.0) < 1e-9, s"sum=$s")
    }

  test("hypergeometric matches direct ratio") {
    // H(2; 10, 4, 5) = C(4,2)*C(6,3)/C(10,5) = 6*20/252
    assert(math.abs(hyper(2, 10, 4, 5) - 120.0 / 252) < 1e-10)
  }

  test("hypergeometric is 0 outside support") {
    assert(hyper(5, 10, 4, 5) == 0.0) // x > K
    assert(hyper(-1, 10, 4, 5) == 0.0)
    assert(hyper(0, 10, 4, 8) == 0.0) // N-x > M-K
  }
}
