package repro.harness

import repro.SparkSpec
import repro.core.Gbda
import repro.ged.ExactGed
import repro.graphs.GraphGen
import repro.spark.GraphFrames

class HarnessSpec extends SparkSpec {

  test("TableText.render aligns columns and includes every row") {
    val s = TableText.render("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    assert(s.contains("== T =="))
    assert(s.linesIterator.size == 5)
    assert(s.contains("| 333 | 4  |"))
  }

  test("TableText formatting helpers") {
    assert(TableText.fmt(0.12345, 2) == "0.12")
    assert(TableText.fmtBytes(2048) == "2.00kb")
    assert(TableText.fmtBytes(3L * 1024 * 1024) == "3.00mb")
    assert(TableText.fmtMs(12.3456) == "12.35ms")
    assert(TableText.fmtMs(25000) == "25.0s")
  }

  test("timeMs measures and returns the value") {
    val (v, ms) = TableText.timeMs { Thread.sleep(15); 42 }
    assert(v == 42 && ms >= 10)
  }

  test("Confusion counts pairs and derives precision, recall and F1") {
    // (actual, predicted) for each pair
    val pairs = Seq((true, true), (true, true), (false, true), (true, false), (false, false))
    val c = Confusion.count(pairs)(_._1, _._2)
    assert(c == Confusion(tp = 2, fp = 1, fn = 1))
    assert(math.abs(c.precision - 2.0 / 3) < 1e-12 && math.abs(c.recall - 2.0 / 3) < 1e-12)
    assert(math.abs(c.f1 - 2.0 / 3) < 1e-12)
    assert(Confusion(0, 0, 0).precision == 1.0 && Confusion(0, 0, 0).recall == 1.0)
    assert(Confusion(0, 3, 2).f1 == 0.0)
  }

  private def tiny(seed: Long): Datasets.RealSet = {
    val cfg = GraphGen.IamLikeConfig("tiny", 18, 3, 4, 6, 4, 3, 2.0, seed = seed)
    val (db, qs) = GraphGen.iamLike(cfg)
    Datasets.RealSet(cfg, db, qs)
  }

  private lazy val tinySet: Datasets.RealSet = tiny(404)

  test("RealSet.exactGeds memoizes full exact-GED matrices") {
    val gt = tinySet.exactGeds
    assert(gt.size == tinySet.queries.size * tinySet.db.size)
    gt.values.foreach(d => assert(d >= 0 && d <= 20))
    assert(tinySet.exactGeds eq gt) // cached instance
  }

  test("two sets that share a name each get the exact GEDs of their own pairs") {
    val sets = Seq(tinySet, tiny(405))
    assert(sets.map(_.cfg.name).distinct.size == 1)
    val expected = sets.map(s =>
      (for (q <- s.queries; g <- s.db) yield (q.id, g.id) -> ExactGed.compute(q, g)).toMap)
    assert(expected.distinct.size == 2, "the seeds should give different ground truths")
    sets.zip(expected).foreach { case (s, want) => assert(s.exactGeds == want, s"seed=${s.cfg.seed}") }
  }

  test("GbdaRuns.phis covers every pair and equals Gbda.score at every tauHat") {
    val tauHats = Seq(1, 3, 5)
    GbdaRuns.fitted(spark, tinySet.db, tinySet.queries, tauHats, nPairs = 200) { (df, models) =>
      assert(models.map(_._1) == tauHats)
      val dict = GraphFrames.dictionary(df)
      models.foreach { case (th, model) =>
        val phis = GbdaRuns.phis(df, model, tinySet.queries)
        assert(phis.size == tinySet.queries.size * tinySet.db.size, s"tauHat=$th")
        for (q <- tinySet.queries; g <- tinySet.db)
          assert(phis((q.id, g.id)) == Gbda.score(g.n, dict.ids(g.branches), q.n, dict.ids(q.branches), model)._2,
            s"tauHat=$th q=${q.id} g=${g.id}")
      }
    }
  }

  test("GbdaRuns.fitted unpersists its DataFrame, also when the body throws") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val seen = GbdaRuns.fitted(spark, tinySet.db, tinySet.queries, Seq(2), nPairs = 50) { (_, _) =>
      sc.getPersistentRDDs.keySet
    }
    assert(seen.size > before.size, "the body should run on a cached DataFrame")
    assert(sc.getPersistentRDDs.keySet == before)
    intercept[IllegalStateException] {
      GbdaRuns.fitted(spark, tinySet.db, tinySet.queries, Seq(2), nPairs = 50) { (_, _) =>
        throw new IllegalStateException("body failed")
      }
    }
    assert(sc.getPersistentRDDs.keySet == before)
  }

  test("Effectiveness rows are internally consistent on a tiny set") {
    val rows = Effectiveness.rows(spark, tinySet, tauHats = Seq(2, 4),
      gammas = Seq(0.8), nPriorPairs = 200)
    assert(rows.nonEmpty)
    val gt = tinySet.exactGeds
    rows.foreach { r =>
      assert(r.counts.precision >= 0 && r.counts.precision <= 1)
      assert(r.counts.recall >= 0 && r.counts.recall <= 1)
      // tp + fn equals the number of actual positives — method-independent
      val actual = gt.values.count(_ <= r.tauHat)
      assert(r.counts.tp + r.counts.fn == actual, s"$r actual=$actual")
    }
    // the four methods all appear
    assert(rows.map(_.method).toSet ==
      Set("GBDA", "LSAP", "Greedy-Sort-GED", "Seriation"))
  }

  test("certifySeparation accepts disjoint-alphabet families and rejects shared ones") {
    val good = GraphGen.synSubset(n = 30, families = 2, d = 4, scaleFree = true, seed = 3)
    SynAccuracy.certifySeparation(good, tauHatMax = 6)
    val cfg = IndexedSeq("A", "B")
    val shared = {
      val rng = new scala.util.Random(5)
      val t1 = GraphGen.template(0L, 10, 1, scaleFree = false, cfg, IndexedSeq("x"), rng)
      val t2 = GraphGen.template(1000L, 10, 1, scaleFree = false, cfg, IndexedSeq("x"), rng)
      GraphGen.KnownGedDataset(Vector(t1, t2), Map(t1.id -> (0, 0), t2.id -> (1, 0)))
    }
    intercept[IllegalArgumentException](SynAccuracy.certifySeparation(shared, tauHatMax = 20))
  }

  test("Efficiency.synRows respects the feasibility caps") {
    val rows = Efficiency.synRows(spark, scaleFree = true, sizes = Seq(60, 1100), tauHat = 3)
    val at60 = rows.filter(_.n == 60)
    assert(at60.forall(_.perCompMs.isDefined))
    val lsap1100 = rows.find(r => r.n == 1100 && r.method == "LSAP").get
    assert(lsap1100.perCompMs.isEmpty && lsap1100.note.contains("cap"))
    val gbda1100 = rows.find(r => r.n == 1100 && r.method == "GBDA").get
    assert(gbda1100.perCompMs.isDefined)
  }

  test("SynAccuracy rows on a small synthetic subset are sound") {
    val rows = SynAccuracy.rows(spark, scaleFree = true, sizes = Seq(60),
      tauHats = Seq(3, 5), gammas = Seq(0.8), nPriorPairs = 150)
    assert(rows.size == 2) // |tauHats| x |gammas|
    rows.foreach { r =>
      assert(r.counts.precision >= 0 && r.counts.precision <= 1)
      assert(r.counts.recall >= 0 && r.counts.recall <= 1)
      // 10 queries x 55 graphs; positives per (q, tauHat) are family-bounded
      assert(r.counts.tp + r.counts.fn <= 10 * 11)
    }
  }

  test("Table2Stats on the syn-lite subsets reports the construction truthfully") {
    // use the small cached subsets only (avoid generating the full ladder)
    val ds = Datasets.synSubset(100, scaleFree = true)
    assert(Datasets.synSubset(100, scaleFree = true) eq ds) // generated once
    assert(ds.graphs.size == Datasets.synFamilies * (Datasets.synD + 1))
    assert(Datasets.synQueries(ds).size == 2 * Datasets.synFamilies)
  }
}
