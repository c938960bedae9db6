package repro.bench

import repro.SparkSpec
import repro.harness.SynAccuracy

/** Reproduces the accuracy-vs-graph-size experiments (Figures 26–29) as a
  * table: GBDA precision/recall/F1 on Syn-1-lite for τ̂ ∈ {3,4,5,6} and
  * γ ∈ {0.7,0.8,0.9}, against the construction-time ground truth of the
  * Appendix-F families. Shape to reproduce: accuracy is stable across graph
  * sizes and insensitive to γ.
  */
class SynAccuracyBench extends SparkSpec {

  test("GBDA accuracy vs graph size on Syn-1-lite (Figs. 26-29)") {
    val rows = SynAccuracy.rows(spark)
    println(SynAccuracy.render(rows))

    assert(rows.nonEmpty)
    rows.foreach { r =>
      assert(r.counts.precision >= 0 && r.counts.precision <= 1, r.toString)
      assert(r.counts.recall >= 0 && r.counts.recall <= 1, r.toString)
    }
    // stability across n (the paper's headline claim for Figs. 26-29):
    // per (tauHat, gamma), the F1 spread across sizes stays moderate
    for (th <- Seq(3, 4, 5, 6); gm <- Seq(0.7, 0.8, 0.9)) {
      val f1s = rows.filter(r => r.tauHat == th && math.abs(r.gamma - gm) < 1e-9).map(_.counts.f1)
      assert(f1s.nonEmpty, s"missing rows th=$th gm=$gm")
      assert(f1s.max - f1s.min <= 0.5, s"th=$th gm=$gm f1 spread ${f1s.min}..${f1s.max}")
    }
    // gamma-insensitivity: for fixed (n, tauHat) the precision spread over
    // gamma is small
    for (n <- rows.map(_.n).distinct; th <- Seq(3, 6)) {
      val ps = rows.filter(r => r.n == n && r.tauHat == th).map(_.counts.precision)
      assert(ps.max - ps.min <= 0.5, s"n=$n th=$th precision spread ${ps.min}..${ps.max}")
    }
  }
}
