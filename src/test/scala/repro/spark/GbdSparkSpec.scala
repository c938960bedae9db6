package repro.spark

import org.apache.spark.sql.DataFrame
import org.scalacheck.Gen
import org.scalacheck.rng.Seed

import repro.{Oracle, SparkSpec}
import repro.TestGraphs.{adversarialGraph, g1, g2, randomSmall}
import repro.core.{Gbda, GbdaModel, Gmm}
import repro.graphs.{Edge, GraphGen, LabeledGraph}

class GbdSparkSpec extends SparkSpec {

  private lazy val db: Seq[LabeledGraph] =
    Seq(g2) ++ (1 to 25).map(s => randomSmall(s, 4 + s % 5))
  private lazy val dbDf = GraphFrames.toBranchDf(spark, db).cache()

  test("gbdVsAllJoin (Catalyst path) equals the in-memory GBD for every graph") {
    val got = GbdSpark.gbdVsAllJoin(dbDf, g1).collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap
    db.foreach { g =>
      assert(got(g.id) == LabeledGraph.gbd(g1, g), s"gid=${g.id}")
    }
  }

  test("the two distributed GBD paths agree with each other") {
    // The served search's gbd column (two-pointer kernel) against the
    // Catalyst join, which the DuckDB oracle checks below.
    val model = GbdaSearch.fitModel(dbDf, tauHat = 3, nPairs = 100)
    for (q <- Seq(g1, g2, randomSmall(999, 10))) {
      val served = GbdaSearch.search(dbDf, model, q, gamma = 0.0).collect()
        .map(r => r.getLong(0) -> r.getInt(1)).toMap
      val join = GbdSpark.gbdVsAllJoin(dbDf, q).collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
      assert(served.size == db.size, s"query ${q.id}")
      assert(served == join, s"query ${q.id}")
    }
  }

  /** Checks `gbdVsAllJoin(df, q)` against DuckDB SQL over the exploded
    * branch tables.
    */
  private def assertJoinMatchesDuckDb(df: DataFrame, q: LabeledGraph): Unit = {
    val bc = GraphFrames.branchCounts(df)
    val qCounts = q.branches.groupBy(identity).toSeq.map { case (s, xs) => (s, xs.length) }
    import spark.implicits._
    val qDf = qCounts.toDF("sig", "qcnt")
    val gDf = df.select("gid", "nv")
    val sparkRes = GbdSpark.gbdVsAllJoin(df, q)
    Oracle.assertEquivalent(
      sparkRes,
      s"""SELECT CAST(g.gid AS BIGINT) AS gid,
         |       CAST(GREATEST(CAST(g.nv AS INT), ${q.n}) - COALESCE(i.inter, 0) AS INT) AS gbd
         |FROM g LEFT JOIN (
         |  SELECT bc.gid AS gid, SUM(LEAST(CAST(bc.cnt AS INT), CAST(q.qcnt AS INT))) AS inter
         |  FROM bc JOIN q ON bc.sig = q.sig
         |  GROUP BY bc.gid
         |) i ON g.gid = i.gid""".stripMargin,
      "bc" -> bc, "q" -> qDf, "g" -> gDf)
  }

  test("gbdVsAllJoin result matches DuckDB SQL over the exploded branch tables (Oracle)") {
    assertJoinMatchesDuckDb(dbDf, g1)
  }

  test("an edge label containing ',' gives the Def. 4 GBD on every distributed path") {
    // The query's one edge is labelled "b,c"; graph 2 has edges b and c at A.
    val q = LabeledGraph(1L, Array("A", "B"), Array(Edge(0, 1, "b,c")))
    val sep = LabeledGraph(2L, Array("A", "B", "C"), Array(Edge(0, 1, "b"), Edge(0, 2, "c")))
    val sepDb = Seq(sep, q.copy(id = 3L)) ++ (1 to 6).map(s => randomSmall(s, 3 + s % 3))
    val df = GraphFrames.toBranchDf(spark, sepDb).cache()
    val model = GbdaSearch.fitModel(df, tauHat = 2, nPairs = 20)
    val served = GbdaSearch.search(df, model, q, gamma = 0.0).collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap
    val join = GbdSpark.gbdVsAllJoin(df, q).collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(join(2L) == 3 && join(3L) == 0)
    assert(served == join)
    sepDb.foreach(g => assert(join(g.id) == LabeledGraph.gbd(q, g), s"gid=${g.id}"))
    assertJoinMatchesDuckDb(df, q)
  }

  /** Asserts that the GBD prior sample of a fit on `df` (`nPairs` pairs drawn
    * with `seed`) is, once sorted, [[GbdSpark.pairwiseGbd]]'s output on the
    * same pairs, and that `model`, fitted with those arguments, holds
    * bit for bit the GMM fitted to that sorted output.
    */
  private def assertPriorSampleIsPairwise(df: DataFrame, model: GbdaModel, nPairs: Int, seed: Long): Unit = {
    import spark.implicits._
    val gids = df.select("gid").collect().map(_.getLong(0))
    val pairs = GbdaSearch.samplePairs(gids.length, nPairs, seed).map { case (i, j) => (gids(i), gids(j)) }
    val reference = GbdSpark.pairwiseGbd(df, pairs.toSeq.toDF("gid1", "gid2"))
      .select("gbd").collect().map(_.getInt(0).toDouble).sorted
    val rows = GbdaSearch.collectRows(df)
    assert(rows.map(_._1).sameElements(gids))
    assert(GbdaSearch.gbdSample(rows.map(_._3), nPairs, seed).sameElements(reference))
    val expected = Gmm.fit(reference, GbdaSearch.GmmComponents)
    for ((got, want) <- Seq(model.gmm.weights -> expected.weights, model.gmm.means -> expected.means,
                             model.gmm.sigmas -> expected.sigmas))
      assert(java.util.Arrays.equals(got, want), s"${got.toSeq} != ${want.toSeq}")
  }

  test("the GBD prior's sample is pairwiseGbd's on the same pairs, and the fitted GMM is Gmm.fit of it") {
    assertPriorSampleIsPairwise(dbDf, GbdaSearch.fitModel(dbDf, tauHat = 3, nPairs = 100), nPairs = 100, seed = 7)
  }

  /** A database of 4–8 adversarially labelled graphs of 0–5 vertices with ids
    * 0 until k, and two queries: a fresh graph and a copy of a database graph.
    */
  private val adversarialCase: Gen[(Seq[LabeledGraph], Seq[LabeledGraph])] = for {
    k <- Gen.choose(4, 8)
    graphs <- Gen.listOfN(k, adversarialGraph(0, 0, 5))
    db = graphs.zipWithIndex.map { case (g, i) => g.copy(id = i.toLong) }
    fresh <- adversarialGraph(100, 0, 5)
    copied <- Gen.oneOf(db)
  } yield (db, Seq(fresh, copied.copy(id = 101)))

  for (seed <- 1 to 4)
    test(s"adversarial labels: served search = Gbda.search = gbdVsAllJoin = DuckDB (seed=$seed)") {
      val (advDb, queries) = adversarialCase.pureApply(Gen.Parameters.default, Seed(seed.toLong))
      val df = GraphFrames.toBranchDf(spark, advDb).cache()
      val model = GbdaSearch.fitModel(df, tauHat = 2, nPairs = 30, seed = seed.toLong)
      assertPriorSampleIsPairwise(df, model, nPairs = 30, seed = seed.toLong)
      // "" and U+0000 are labels like any other; an alphabet holds at least one.
      assert(model.nVertexLabels == math.max(1, advDb.flatMap(_.vertexLabels).toSet.size))
      assert(model.nEdgeLabels == math.max(1, advDb.flatMap(_.edges.map(_.label)).toSet.size))
      val nv = advDb.map(g => g.id -> g.n).toMap
      val withQueries = model.ensureVs(queries.map(_.n.toLong)) // a fresh query's size may be new
      for (q <- queries) {
        assertJoinMatchesDuckDb(df, q)
        val join = GbdSpark.gbdVsAllJoin(df, q).collect().map(r => r.getLong(0) -> r.getInt(1))
        for (gamma <- Seq(0.0, 0.5, 0.9)) {
          val served = GbdaSearch.search(df, model, q, gamma).collect()
            .map(r => r.getLong(0) -> r.getInt(1)).toSet
          val ref = Gbda.search(advDb.map(g => (g.id, g.n, g.branches)), q.n, q.branches, model, gamma)
            .map(t => t._1 -> t._2).toSet
          val viaJoin = join.filter { case (gid, gbd) =>
            Gbda.phi(gbd, math.max(nv(gid), q.n).toLong, withQueries) >= gamma
          }.toSet
          assert(served == ref, s"query=${q.id} gamma=$gamma")
          assert(viaJoin == ref, s"query=${q.id} gamma=$gamma")
        }
      }
      df.unpersist()
    }

  test("pairwiseGbd matches the in-memory GBD on an explicit pair list") {
    import spark.implicits._
    val pairs = for (i <- db.indices; j <- db.indices if i < j) yield (db(i).id, db(j).id)
    val pairsDf = pairs.toDF("gid1", "gid2")
    val got = GbdSpark.pairwiseGbd(dbDf, pairsDf).collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getInt(2)).toMap
    val byId = db.map(g => g.id -> g).toMap
    pairs.foreach { case (a, b) =>
      assert(got((a, b)) == LabeledGraph.gbd(byId(a), byId(b)), s"pair=($a,$b)")
    }
  }

  test("distributed GBD on the Appendix-F families reproduces known structure") {
    val ds = GraphGen.synSubset(n = 30, families = 2, d = 4, scaleFree = true, seed = 14)
    val df = GraphFrames.toBranchDf(spark, ds.graphs)
    val q = ds.graphs.head // family 0, variant 0 (the template)
    val got = GbdSpark.gbdVsAllJoin(df, q).collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    ds.graphs.foreach { g =>
      assert(got(g.id) == LabeledGraph.gbd(q, g))
      // within family 0: variant j differs in j edges around the center, so
      // GBD <= 2j (each RE touches at most two branches)
      if (ds.meta(g.id)._1 == 0) {
        val j = ds.meta(g.id)._2
        assert(got(g.id) <= 2 * j, s"variant $j gbd=${got(g.id)}")
      }
    }
  }
}
