package repro.spark

import java.util.concurrent.{Executors, TimeUnit}

import org.apache.spark.SparkEnv
import org.apache.spark.sql.DataFrame
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

import repro.SparkSpec
import repro.TestGraphs.randomSmall
import repro.core.{Gbda, GbdaModel}
import repro.graphs.{Edge, GraphGen, LabeledGraph}

class GbdaSearchSpec extends SparkSpec {

  private lazy val db: Seq[LabeledGraph] = {
    // clustered small graphs so similar pairs exist
    val rng = new scala.util.Random(55)
    val vA = IndexedSeq("A", "B", "C")
    val eA = IndexedSeq("x", "y")
    (0 until 8).flatMap { c =>
      val tmpl = GraphGen.randomGraph(c * 10L, 5 + c % 3, 2.0, vA, eA, rng)
      tmpl +: (1 to 3).map(k => GraphGen.perturb(tmpl, k, vA, eA, rng).copy(id = c * 10L + k))
    }
  }
  private lazy val dbDf = GraphFrames.toBranchDf(spark, db).cache()

  private lazy val model = GbdaSearch.fitModel(dbDf, tauHat = 3, nPairs = 300, seed = 5)

  test("fitModel infers alphabet sizes from the dataset") {
    assert(model.nVertexLabels == 3)
    assert(model.nEdgeLabels == 2)
  }

  test("fitModel tabulates a GED prior per distinct graph size") {
    val sizes = db.map(_.n.toLong).distinct.toSet
    assert(sizes.subsetOf(model.gedPrior.keySet))
    model.gedPrior.values.foreach { p =>
      assert(p.length == 4)
      assert(math.abs(p.sum - 1.0) < 1e-9)
    }
    assert(model.phiTable.keySet == model.gedPrior.keySet)
    model.phiTable.values.foreach { row =>
      assert(row.length == 2 * model.tauHat + 1)
      assert(row.forall(phi => phi >= 0.0 && phi <= 1.0), row.toSeq)
    }
  }

  test("a fitted model survives Java serialization with an identical Phi table") {
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(model)
    out.close()
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[repro.core.GbdaModel]
    assert(copy.phiTable.keySet == model.phiTable.keySet)
    for ((v, row) <- model.phiTable; gbd <- row.indices)
      assert(Gbda.phi(gbd, v, copy) == row(gbd), s"v=$v gbd=$gbd")
  }

  test("fitModel GMM is a sane distribution over observed GBD range") {
    assert(model.gmm.weights.sum > 0.999)
    val mass = (0 to db.map(_.n).max + 2).map(phi => model.gmm.intervalProb(phi.toDouble)).sum
    assert(mass > 0.8, s"mass=$mass") // most mass on the feasible range
  }

  /** The served answer as `gid → (gbd, Φ)`. */
  private def served(df: DataFrame, q: LabeledGraph, gamma: Double, m: GbdaModel = model): Map[Long, (Int, Double)] =
    GbdaSearch.search(df, m, q, gamma).collect()
      .map(r => r.getLong(0) -> (r.getInt(1), r.getDouble(2))).toMap

  /** Asserts the served answer on `df`, the encoding of `graphs`, equals `Gbda.search`'s. */
  private def assertServedEqualsReference(df: DataFrame, q: LabeledGraph, gamma: Double,
      graphs: Seq[LabeledGraph] = db, m: GbdaModel = model): Unit = {
    val ref = Gbda.search(graphs.map(g => (g.id, g.n, g.branches)), q.n, q.branches, m, gamma)
      .map(t => t._1 -> (t._2, t._3)).toMap
    val got = served(df, q, gamma, m)
    assert(got.keySet == ref.keySet, s"query=${q.id} gamma=$gamma")
    got.foreach { case (gid, (gbd, phi)) =>
      assert(gbd == ref(gid)._1, s"query=${q.id} gamma=$gamma gid=$gid")
      assert(math.abs(phi - ref(gid)._2) < 1e-9, s"query=${q.id} gamma=$gamma gid=$gid")
    }
  }

  test("distributed search equals the driver-side reference (all gammas)") {
    // db(5) plus a two-vertex tail: a size no database graph has, so it is
    // missing from the fitted prior table.
    val base = db(5)
    val grown = LabeledGraph(6000L, base.vertexLabels ++ Array("A", "B"),
      base.edges ++ Array(Edge(0, base.n, "x"), Edge(base.n, base.n + 1, "y")))
    assert(!model.gedPrior.contains(grown.n.toLong))
    for (q <- Seq(base, grown); gamma <- Seq(0.0, 0.3, 0.6, 0.9))
      assertServedEqualsReference(dbDf, q, gamma)
  }

  test("search still equals the driver-side reference after the DataFrame is unpersisted") {
    val df = GraphFrames.toBranchDf(spark, db).cache()
    assertServedEqualsReference(df, db(9), 0.5)
    df.unpersist(blocking = true)
    for (gamma <- Seq(0.0, 0.5, 0.9)) assertServedEqualsReference(df, db(9), gamma)
  }

  test("an empty query and a database holding empty graphs are fitted and searched, with Phi 1 between empty graphs") {
    val empty = LabeledGraph(7000L, Array.empty[String], Array.empty[Edge])
    val q = empty.copy(id = 7001L)
    val withEmpty = db :+ empty
    val df = GraphFrames.toBranchDf(spark, withEmpty).cache()
    val m = GbdaSearch.fitModel(df, tauHat = 3, nPairs = 300, seed = 5)
    assert(Gbda.phi(0, 0L, m) == 1.0)
    val ref = Gbda.search(withEmpty.map(g => (g.id, g.n, g.branches)), 0, Array.empty, m, 0.9)
    assert(ref == Seq((7000L, 0, 1.0)))
    for (query <- Seq(q, db(2)); gamma <- Seq(0.0, 0.5, 0.9))
      assertServedEqualsReference(df, query, gamma, withEmpty, m)
    df.unpersist()
    // A database of empty graphs only: every size is 0, so no row is tabulated.
    val empties = Seq(empty, empty.copy(id = 7002L))
    val emptyDf = GraphFrames.toBranchDf(spark, empties).cache()
    val em = GbdaSearch.fitModel(emptyDf, tauHat = 3, nPairs = 10)
    assert(em.phiTable.isEmpty)
    assert(served(emptyDf, q, 0.9, em) == Map(7000L -> (0, 1.0), 7002L -> (0, 1.0)))
    emptyDf.unpersist()
  }

  test("4 threads searching one DataFrame at once get the sequential answers") {
    val queries = db.indices.by(4).map(db)
    val sequential = queries.map(q => served(dbDf, q, 0.5))
    // A fresh DataFrame, so its first planning of `rdd` is also under contention.
    val df = GraphFrames.toBranchDf(spark, db).cache()
    val pool = Executors.newFixedThreadPool(4)
    try {
      val answers = Seq.fill(4)(pool.submit(() => queries.map(q => served(df, q, 0.5))))
      answers.foreach(a => assert(a.get(120, TimeUnit.SECONDS) == sequential))
    } finally {
      pool.shutdown()
      df.unpersist()
    }
  }

  test("partition objects of the branch DataFrame and of the planned search serialize to under 2 KiB") {
    val ser = SparkEnv.get.closureSerializer.newInstance()
    for (size <- Seq(10, 4000)) {
      val df = GraphFrames.toBranchDf(spark, (1 to size).map(s => randomSmall(s, 8))).cache()
      // df.rdd is also the RDD every search on df runs over.
      for (p <- df.rdd.partitions)
        assert(ser.serialize(p).remaining < 2048, s"|D|=$size, partition ${p.index}")
      df.unpersist()
    }
  }

  test("phi values are probabilities and the query itself scores highest") {
    val q = db.head
    val rows = GbdaSearch.search(dbDf, model, q, gamma = 0.0).collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getDouble(2)))
    rows.foreach { case (_, gbd, phi) =>
      assert(phi >= 0.0 && phi <= 1.0)
      assert(gbd >= 0)
    }
    val self = rows.find(_._1 == q.id).get
    assert(self._2 == 0) // GBD to itself
    assert(self._3 == rows.map(_._3).max, "self match must score maximal phi")
  }

  test("a graph identical to the query is found at high gamma") {
    val q = db.head
    val res = GbdaSearch.search(dbDf, model, q, gamma = 0.9).collect().map(_.getLong(0)).toSet
    assert(res.contains(q.id))
  }

  test("searching with a far-away query returns nothing") {
    val far = LabeledGraph(5000L, Array.fill(6)("ZZZ"),
      Array(Edge(0, 1, "qq"), Edge(2, 3, "qq")))
    val res = GbdaSearch.search(dbDf, model, far, gamma = 0.5).collect()
    assert(res.isEmpty)
  }

  test("search at gamma 0 covers every database graph exactly once") {
    val q = db(3)
    val rows = GbdaSearch.search(dbDf, model, q, gamma = 0.0).collect()
    assert(rows.map(_.getLong(0)).sorted.toSeq == db.map(_.id).sorted)
  }

  /** The number of Spark jobs `body` runs, counted in the job group `group`. */
  private def jobsIn(group: String)(body: => Unit): Int = {
    val sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try body
    finally sc.clearJobGroup()
    // Job events reach the status tracker asynchronously but in order, so
    // once a later marker job is visible every job of `body` is too.
    val marker = s"$group-marker"
    sc.setJobGroup(marker, "marker")
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    eventually(timeout(Span(30, Seconds))) {
      assert(sc.statusTracker.getJobIdsForGroup(marker).nonEmpty)
    }
    sc.statusTracker.getJobIdsForGroup(group).length
  }

  test("one served query runs exactly one Spark job") {
    val m = model // fit outside the measured job group
    dbDf.count()
    assert(jobsIn("gbda-search")(GbdaSearch.search(dbDf, m, db(7), gamma = 0.5).collect()) == 1)
  }

  test("fitModel runs exactly two Spark jobs") {
    dbDf.count()
    assert(jobsIn("gbda-fit")(GbdaSearch.fitModel(dbDf, tauHat = 3, nPairs = 300, seed = 5)) == 2)
  }
}
