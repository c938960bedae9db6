package repro.jobs

import repro.harness._

/** Table 2: dataset statistics. */
object Table2StatsJob {
  def main(args: Array[String]): Unit =
    println(Table2Stats.render(Table2Stats.rows()))
}

/** Table 3: costs of computing the GBD prior distribution. */
object Table3GbdPriorJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("table3-gbd-prior")
    try println(Table3GbdPrior.render(Table3GbdPrior.rows(spark)))
    finally spark.stop()
  }
}

/** Table 4: costs of computing the GED prior distribution. */
object Table4GedPriorJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("table4-ged-prior")
    val tauHat = args.headOption.map(_.toInt).getOrElse(10)
    try println(Table4GedPrior.render(Table4GedPrior.rows(spark, tauHat)))
    finally spark.stop()
  }
}

/** Online efficiency (Figs. 14–16 as tables). */
object OnlineEfficiencyJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("online-efficiency")
    try {
      println(Efficiency.renderReal(Efficiency.realRows(spark)))
      println(Efficiency.renderSyn(Efficiency.synRows(spark, scaleFree = true)))
      println(Efficiency.renderSyn(Efficiency.synRows(spark, scaleFree = false)))
    } finally spark.stop()
  }
}

/** Effectiveness on the real-lite sets (Figs. 17–25 as tables). */
object EffectivenessJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("effectiveness")
    try Datasets.realSets.foreach { set =>
      val rs = Effectiveness.rows(spark, set)
      println(Effectiveness.render(s"Effectiveness on ${set.cfg.name} (exact-GED ground truth)", rs))
    } finally spark.stop()
  }
}

/** GBDA accuracy vs graph size on Syn-1 (Figs. 26–29 as tables). */
object SynAccuracyJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.local("syn-accuracy")
    try println(SynAccuracy.render(SynAccuracy.rows(spark)))
    finally spark.stop()
  }
}
