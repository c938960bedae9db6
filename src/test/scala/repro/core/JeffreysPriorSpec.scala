package repro.core

import org.scalatest.funsuite.AnyFunSuite

class JeffreysPriorSpec extends AnyFunSuite {

  private val grid = for {
    v <- Seq(5L, 10L, 20L, 50L)
    tauHat <- Seq(3, 5)
  } yield (v, tauHat)

  for ((v, tauHat) <- grid)
    test(s"prior is a distribution over [0, tauHat] (v=$v, tauHat=$tauHat)") {
      val p = JeffreysPrior.forV(v, tauHat, nVertexLabels = 3, nEdgeLabels = 3)
      assert(p.length == tauHat + 1)
      assert(math.abs(p.sum - 1.0) < 1e-9, s"sum=${p.sum}")
      assert(p.forall(x => x >= 0 && !x.isNaN && !x.isInfinite), p.toSeq.toString)
    }

  test("prior is non-degenerate (not a point mass) on a typical setting") {
    val p = JeffreysPrior.forV(10L, 5, 3, 3)
    assert(p.max < 0.999, p.toSeq.toString)
    assert(p.count(_ > 1e-6) >= 2, p.toSeq.toString)
  }

  test("prior handles large v (100K vertices) without blowing up") {
    val p = JeffreysPrior.forV(100000L, 5, 10, 5)
    assert(math.abs(p.sum - 1.0) < 1e-9)
    assert(p.forall(x => x >= 0 && !x.isNaN))
  }

  test("raw Fisher information is finite and non-negative") {
    val p = ModelParams(12L, 3, 3)
    val (l1, dl1) = BranchModel.lambda1Matrix(4, p)
    val r = JeffreysPrior.raw(l1, dl1)
    assert(r.forall(x => x >= 0 && !x.isNaN && !x.isInfinite), r.toSeq.toString)
  }

  test("tauHat=0 degenerates to the point mass at 0") {
    val p = JeffreysPrior.forV(10L, 0, 3, 3)
    assert(p.length == 1 && math.abs(p(0) - 1.0) < 1e-12)
  }
}
