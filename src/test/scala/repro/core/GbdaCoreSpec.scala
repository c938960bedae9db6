package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.spark.{GbdaSearch, GraphFrames}

class GbdaCoreSpec extends SparkSpec {

  private def model(tauHat: Int, vs: Seq[Long]): GbdaModel = {
    val gmm = Gmm.fit(Array(1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0, 8.0), k = 2)
    GbdaModel(tauHat, 3, 3, gmm).ensureVs(vs)
  }

  /** Asserts that every F and Φ row of `m` is bit-identical to a serial
    * `tabulate(v)` of `m`, whatever parallel path added the row.
    */
  private def assertRowsAreSerial(m: GbdaModel): Unit = {
    assert(m.phiTable.keySet == m.gedPrior.keySet)
    for (v <- m.phiTable.keys) {
      val (f, phi) = m.tabulate(v)
      assert(java.util.Arrays.equals(m.gedPrior(v), f), s"F row, v=$v")
      assert(java.util.Arrays.equals(m.phiTable(v), phi), s"Phi row, v=$v")
    }
  }

  test("ensureVs over sizes 1..60 and withTauHat give the serial tabulate's rows bit for bit") {
    val m = model(5, 1L to 60L)
    assert(m.phiTable.keySet == (1L to 60L).toSet)
    assertRowsAreSerial(m)
    for (th <- Seq(0, 2, 5, 10)) {
      val re = m.withTauHat(th)
      assert(re.tauHat == th && re.phiTable.keySet == m.phiTable.keySet)
      assertRowsAreSerial(re)
    }
  }

  test("a fitted model's F and Phi rows are the serial tabulate's bit for bit, also after withTauHat") {
    val db = (1 to 40).map(s => TestGraphs.randomSmall(s, 2 + s % 12))
    val df = GraphFrames.toBranchDf(spark, db).cache()
    try {
      val m = GbdaSearch.fitModel(df, tauHat = 4, nPairs = 200, extraVs = Seq(20L, 33L, 3L))
      assert(m.phiTable.keySet == (db.map(_.n.toLong) ++ Seq(20L, 33L)).toSet)
      assertRowsAreSerial(m)
      assertRowsAreSerial(m.withTauHat(2))
    } finally df.unpersist()
  }

  test("phi equals the hand-assembled Bayes sum (wiring check)") {
    // v=4 is tabulated with the model, v=9 added later by ensureVs; phi runs
    // past the 2*tauHat table, where Phi must be 0.
    for (tauHat <- Seq(0, 3); v <- Seq(4L, 9L)) {
      val m = model(tauHat, Seq(4L)).ensureVs(Seq(9L))
      val p = ModelParams(v, 3, 3)
      val prior = JeffreysPrior.forV(v, tauHat, 3, 3)
      for (phi <- 0 to 3 * tauHat + 2) {
        val raw = (0 to tauHat).map(t => BranchModel.lambda1(t, phi, p) * prior(t) / m.prGbd(phi)).sum
        val expected = math.min(1.0, math.max(0.0, raw))
        assert(math.abs(Gbda.phi(phi, v, m) - expected) < 1e-12, s"tauHat=$tauHat v=$v phi=$phi")
        if (phi > 2 * tauHat) assert(Gbda.phi(phi, v, m) == 0.0, s"tauHat=$tauHat v=$v phi=$phi")
      }
    }
  }

  test("phi rejects an untabulated size; ensureVs adds exactly that row") {
    val m = model(3, Seq(4L))
    val e = intercept[IllegalArgumentException](Gbda.phi(0, 9L, m))
    assert(e.getMessage.contains("ensureVs"))
    val m2 = m.ensureVs(Seq(9L))
    assert(m2.phiTable.keySet == Set(4L, 9L) && m2.gedPrior.keySet == Set(4L, 9L))
    assert(m2.phiTable(4L) eq m.phiTable(4L))
    val (f, phi) = m.tabulate(9L)
    assert(m2.gedPrior(9L).toSeq == f.toSeq && m2.phiTable(9L).toSeq == phi.toSeq)
    // the row holds phi in [0, 2*tauHat]; beyond it Phi is 0
    assert((0 to 9).map(Gbda.phi(_, 9L, m2)) == phi.toSeq ++ Seq(0.0, 0.0, 0.0))
  }

  test("ensureVs covers requested sizes and deduplicates") {
    val m = model(4, Seq(5L))
    val m2 = m.ensureVs(Seq(5L, 8L, 5L, 12L, 8L))
    assert(m2.gedPrior.keySet == Set(5L, 8L, 12L) && m2.phiTable.keySet == Set(5L, 8L, 12L))
    m2.gedPrior.values.foreach(p => assert(math.abs(p.sum - 1.0) < 1e-9))
    assert(m2.gedPrior(5L) eq m.gedPrior(5L)) // a tabulated size is kept, not recomputed
    assert(m.ensureVs(Seq(5L, 5L)) eq m)
  }

  test("phi is clamped to [0, 1]") {
    val m = model(5, Seq(6L))
    for (gbd <- 0 to 20) {
      val p = Gbda.phi(gbd, 6L, m)
      assert(p >= 0.0 && p <= 1.0, s"gbd=$gbd phi=$p")
    }
  }

  test("phi short-circuits to 0 beyond 2*tauHat") {
    val m = model(2, Seq(10L))
    assert(Gbda.phi(5, 10L, m) == 0.0) // first phi past the table row [0, 2*tauHat]
    assert(Gbda.phi(7, 10L, m) == 0.0)
    assert(Gbda.phi(100, 10L, m) == 0.0)
  }

  test("phi rejects negative GBD") {
    val m = model(2, Seq(10L))
    intercept[IllegalArgumentException](Gbda.phi(-1, 10L, m))
  }

  test("withTauHat retabulates the GED prior at the new threshold") {
    val m = model(5, Seq(4L, 7L)).withTauHat(2)
    assert(m.tauHat == 2)
    m.gedPrior.values.foreach { p => assert(p.length == 3 && math.abs(p.sum - 1.0) < 1e-9) }
  }

  test("withTauHat at the model's own threshold returns the model without retabulating") {
    val m = model(5, Seq(4L, 7L))
    assert(m.withTauHat(m.tauHat) eq m)
  }

  test("withTauHat retabulates Phi with rows of the new length") {
    val m = model(5, Seq(4L)).withTauHat(2).ensureVs(Seq(7L))
    val fresh = model(2, Seq(4L, 7L))
    assert(m.phiTable.keySet == Set(4L, 7L))
    for (v <- Seq(4L, 7L)) {
      assert(m.phiTable(v).length == 5, s"v=$v")
      assert(m.phiTable(v).toSeq == fresh.phiTable(v).toSeq, s"v=$v")
    }
  }

  test("prGbd respects the floor") {
    val m = model(3, Seq(4L))
    assert(m.prGbd(1000000) >= GbdaModel.MinGbdPrior)
  }

  test("search keeps exactly the graphs with phi >= gamma") {
    val m = model(3, Seq(4L, 5L))
    // sorted branch-id multisets: A|x=0, B|x=1, B|y=2, C|y,z=3, Q|q=4, R|r=5, S|s=6
    val b1 = Array(0, 1, 3)
    val b2 = Array(0, 1, 2, 3)
    val b3 = Array(4, 5, 6)
    val q = Array(0, 1, 3)
    val db = Seq((1L, 3, b1), (2L, 4, b2), (3L, 3, b3))
    val all = Gbda.search(db, 3, q, m, gamma = 0.0)
    assert(all.map(_._1) == Seq(1L, 2L, 3L))
    // identical multiset -> gbd 0
    assert(all.find(_._1 == 1L).get._2 == 0)
    assert(all.find(_._1 == 2L).get._2 == 1)
    assert(all.find(_._1 == 3L).get._2 == 3)
    for (gamma <- Seq(0.1, 0.5, 0.9)) {
      val res = Gbda.search(db, 3, q, m, gamma)
      val expected = all.filter(_._3 >= gamma).map(_._1)
      assert(res.map(_._1) == expected, s"gamma=$gamma")
    }
  }

  test("phi is monotonically non-increasing in GBD on a typical model") {
    // Not a theorem, but with a smooth prior the posterior for small tauHat
    // should not *increase* as graphs get branch-wise farther apart.
    val m = model(3, Seq(12L))
    val phis = (0 to 9).map(Gbda.phi(_, 12L, m))
    assert(phis.head >= phis.last)
  }

  test("gbdFromSortedBranches: identical, disjoint, partial, different sizes") {
    import GbdaOps.gbdFromSortedBranches
    val a = Array("a", "b", "b", "c")
    assert(gbdFromSortedBranches(a, a) == 0)
    assert(gbdFromSortedBranches(a, Array("x", "y", "z")) == 4)
    assert(gbdFromSortedBranches(a, Array("b", "b", "d")) == 2)
    assert(gbdFromSortedBranches(Array.empty[String], a) == 4)
    assert(gbdFromSortedBranches(a, Array.empty[String]) == 4)
    // label multisets, as the GED label bound and the LSAP costs pass them
    assert(gbdFromSortedBranches(Array("a", "b"), Array("a", "b")) == 0)
    assert(gbdFromSortedBranches(Array("a", "a"), Array("a")) == 1)
    assert(gbdFromSortedBranches(Array.empty[String], Array("x", "y")) == 2)
    assert(gbdFromSortedBranches(Array("a", "b", "b"), Array("b", "c", "c")) == 2)
  }

  test("gbdFromSortedBranches respects multiset (not set) semantics") {
    import GbdaOps.gbdFromSortedBranches
    assert(gbdFromSortedBranches(Array("a", "a", "a"), Array("a")) == 2)
    assert(gbdFromSortedBranches(Array("a", "a"), Array("a", "a", "a", "a")) == 2)
  }

  test("gbdFromSortedIds: multisets, and absent (negative) ids equal to nothing") {
    import GbdaOps.gbdFromSortedIds
    val a = Array(0, 1, 1, 2)
    assert(gbdFromSortedIds(a, a) == 0)
    assert(gbdFromSortedIds(a, Array(1, 1, 3)) == 2)
    assert(gbdFromSortedIds(Array(0, 0, 0), Array(0)) == 2)
    assert(gbdFromSortedIds(Array.empty[Int], a) == 4)
    assert(gbdFromSortedIds(a, Array.empty[Int]) == 4)
    assert(gbdFromSortedIds(Array(-1, -1, 0), a) == 3)
    assert(gbdFromSortedIds(Array(-1, -1), Array(-1, -1)) == 2)
  }

  test("gbdFromSortedIds over dictionary ids equals gbdFromSortedBranches over the strings") {
    val rng = new scala.util.Random(3)
    def multiset(alphabet: Int): Array[String] =
      Array.fill(rng.nextInt(8))(s"b${rng.nextInt(alphabet)}").sorted
    for (_ <- 1 to 500) {
      val (x, y) = (multiset(6), multiset(9)) // y may hold branches the dictionary of x lacks
      val dict = repro.graphs.BranchDictionary.of(Seq(x))
      assert(GbdaOps.gbdFromSortedIds(dict.ids(x), dict.ids(y)) == GbdaOps.gbdFromSortedBranches(x, y),
        s"${x.toSeq} ${y.toSeq}")
    }
  }
}
