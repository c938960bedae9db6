package repro.bench

import repro.SparkSpec
import repro.harness.{Datasets, Effectiveness}

/** Reproduces the effectiveness experiments (Figures 17–25) as tables:
  * precision ("accuracy"), recall and F1 for GBDA (γ ∈ {0.7,0.8,0.9}) and
  * the three baselines over τ̂ ∈ 1..5, against exact-GED ground truth on the
  * real-lite datasets. Shape to reproduce: GBDA precision ≥ baselines (which
  * estimate via upper bounds and over-reject), GBDA recall lower but F1
  * competitive; recall improves as τ̂ grows.
  */
class EffectivenessBench extends SparkSpec {

  for (set <- Datasets.realSets)
    test(s"effectiveness on ${set.cfg.name} (Figs. 17-25)") {
      val rows = Effectiveness.rows(spark, set)
      println(Effectiveness.render(
        s"Effectiveness on ${set.cfg.name} (exact-GED ground truth)", rows))

      assert(rows.nonEmpty)
      rows.foreach { r =>
        assert(r.counts.precision >= 0 && r.counts.precision <= 1, r.toString)
        assert(r.counts.recall >= 0 && r.counts.recall <= 1, r.toString)
      }
      // every tauHat has all four methods
      for (th <- 1 to 5) {
        val here = rows.filter(_.tauHat == th)
        assert(here.map(_.method).toSet ==
          Set("GBDA", "LSAP", "Greedy-Sort-GED", "Seriation"))
        // ground-truth positives (tp+fn) are consistent across methods
        assert(here.map(r => r.counts.tp + r.counts.fn).distinct.size == 1, s"tauHat=$th")
      }
      // baselines threshold a GED *upper bound*, so they never produce false
      // positives — their precision is 1 whenever they return anything
      rows.filter(r => Set("LSAP", "Greedy-Sort-GED").contains(r.method))
        .foreach(r => assert(r.counts.fp == 0, r.toString))
      // GBDA's probabilistic filter recovers more true positives than the
      // upper-bound baselines at the same tauHat for at least one setting
      val gbdaBestRecall = rows.filter(_.method == "GBDA").map(_.counts.recall).max
      assert(gbdaBestRecall > 0, "GBDA found nothing on any setting")
    }
}
