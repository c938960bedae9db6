package repro.bench

import repro.SparkSpec
import repro.harness.Efficiency

/** Reproduces the online-efficiency experiments (Figures 14–16) as tables:
  * GBDA vs LSAP / Greedy-Sort-GED / Seriation, on the real-lite sets (full
  * query timing) and on the Syn ladders (per-comparison timing up to the
  * per-method feasibility caps). Shape to reproduce: GBDA is fastest and is
  * the only method that reaches the largest sizes.
  */
class OnlineEfficiencyBench extends SparkSpec {

  test("online efficiency on real-lite sets (Fig. 14)") {
    val rows = Efficiency.realRows(spark, tauHats = Seq(1, 5, 10))
    println(Efficiency.renderReal(rows))

    assert(rows.nonEmpty)
    for (ds <- rows.map(_.dataset).distinct) {
      val here = rows.filter(_.dataset == ds)
      val gbda = here.filter(_.method == "GBDA").map(_.avgQueryMs)
      val lsap = here.find(_.method == "LSAP").get.avgQueryMs
      val greedy = here.find(_.method == "Greedy-Sort-GED").get.avgQueryMs
      assert(gbda.nonEmpty && gbda.forall(_ > 0))
      assert(here.filter(_.method == "GBDA (Spark)").map(_.tauHat) == Seq(1, 5, 10))
      // Fig. 14 shape: GBDA beats the assignment-based methods at every tauHat
      assert(gbda.max < lsap, s"$ds: GBDA ${gbda.max}ms !< LSAP ${lsap}ms")
      assert(gbda.max < greedy, s"$ds: GBDA ${gbda.max}ms !< Greedy ${greedy}ms")
    }
  }

  test("online efficiency vs n on Syn-1-lite (Fig. 15)") {
    val rows = Efficiency.synRows(spark, scaleFree = true,
      sizes = Seq(100, 200, 500, 1000, 2000, 5000, 10000, 20000))
    println(Efficiency.renderSyn(rows))
    checkShape(rows)
  }

  test("online efficiency vs n on Syn-2-lite (Fig. 16)") {
    val rows = Efficiency.synRows(spark, scaleFree = false,
      sizes = Seq(100, 200, 500, 1000, 2000, 5000, 10000, 20000))
    println(Efficiency.renderSyn(rows))
    checkShape(rows)
  }

  private def checkShape(rows: Seq[Efficiency.SynRow]): Unit = {
    // GBDA reaches every size; the baselines hit their feasibility caps —
    // the paper's scalability claim (LSAP <20K, Greedy/Seriation <10K,
    // GBDA 100K), scaled to this container.
    val gbda = rows.filter(_.method == "GBDA")
    assert(gbda.forall(_.perCompMs.isDefined))
    assert(rows.filter(r => r.method == "LSAP" && r.n > Efficiency.LsapMaxN)
      .forall(_.perCompMs.isEmpty))
    assert(rows.filter(r => r.method == "Seriation" && r.n > Efficiency.SeriationMaxN)
      .forall(_.perCompMs.isEmpty))
    // where every method still runs, GBDA is the fastest (Fig. 15/16 shape)
    val at500 = rows.filter(_.n == 500)
    val gbda500 = at500.find(_.method == "GBDA").get.perCompMs.get
    at500.filter(_.method != "GBDA").foreach { r =>
      assert(r.perCompMs.exists(_ > gbda500), s"${r.method} not slower than GBDA at n=500")
    }
    // GBDA stays sub-quadratic: 200x size increase costs far less than 200^2
    val t100 = gbda.find(_.n == 100).get.perCompMs.get
    val t20000 = gbda.find(_.n == 20000).get.perCompMs.get
    assert(t20000 < math.max(t100, 0.05) * 4000, s"t100=$t100 t20000=$t20000")
  }
}
