package repro.core

import org.scalatest.funsuite.AnyFunSuite

class GmmSpec extends AnyFunSuite {

  private def sample(rng: scala.util.Random, mu: Double, sigma: Double, n: Int): Array[Double] =
    Array.fill(n)(rng.nextGaussian() * sigma + mu)

  test("fit recovers two well-separated components") {
    val rng = new scala.util.Random(5)
    val xs = sample(rng, 3.0, 1.0, 3000) ++ sample(rng, 20.0, 2.0, 3000)
    val g = Gmm.fit(xs, k = 2)
    val ms = g.means.sorted
    assert(math.abs(ms(0) - 3.0) < 0.5, s"means=${g.means.toSeq}")
    assert(math.abs(ms(1) - 20.0) < 0.8, s"means=${g.means.toSeq}")
    assert(math.abs(g.weights.sum - 1.0) < 1e-9)
    assert(g.weights.forall(w => w > 0.3 && w < 0.7))
  }

  test("fit on a single tight cluster floors sigma") {
    val xs = Array.fill(500)(4.0)
    val g = Gmm.fit(xs, k = 3)
    assert(g.sigmas.forall(_ >= 0.5))
    assert(g.means.forall(m => math.abs(m - 4.0) < 1e-6))
  }

  test("intervalProb is a probability and sums to ~1 over a wide range") {
    val rng = new scala.util.Random(6)
    val xs = sample(rng, 8.0, 3.0, 2000)
    val g = Gmm.fit(xs, k = 3)
    val s = (-40 to 80).map(phi => g.intervalProb(phi.toDouble)).sum
    assert(math.abs(s - 1.0) < 1e-6, s"sum=$s")
    (0 to 20).foreach(phi => assert(g.intervalProb(phi.toDouble) >= 0))
  }

  test("k larger than sample size is clamped") {
    val g = Gmm.fit(Array(1.0, 2.0), k = 5)
    assert(g.k <= 2)
    assert(math.abs(g.weights.sum - 1.0) < 1e-9)
  }

  test("empty sample rejected") {
    intercept[IllegalArgumentException](Gmm.fit(Array.empty[Double], k = 2))
  }

  test("intervalProb of integers approximates the empirical histogram") {
    val rng = new scala.util.Random(8)
    val xs = Array.fill(20000)((rng.nextGaussian() * 2 + 6).round.toDouble)
    val g = Gmm.fit(xs, k = 2)
    val hist = xs.groupBy(identity).map { case (k, v) => k -> v.length.toDouble / xs.length }
    for ((phi, emp) <- hist if emp > 0.02)
      assert(math.abs(g.intervalProb(phi) - emp) < 0.05, s"phi=$phi emp=$emp model=${g.intervalProb(phi)}")
  }
}
