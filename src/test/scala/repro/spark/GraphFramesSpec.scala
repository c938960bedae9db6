package repro.spark

import java.nio.charset.StandardCharsets.{ISO_8859_1, UTF_8}
import java.util.concurrent.{CyclicBarrier, Executors, TimeUnit}

import org.apache.spark.SparkEnv
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.{CatalystGbd, SparkSpec, TestGraphs}
import repro.TestGraphs.{g1, g2, randomSmall}
import repro.graphs.LabeledGraph
import repro.harness.Datasets

class GraphFramesSpec extends SparkSpec {

  private lazy val graphs = Seq(g1, g2) ++ (1 to 8).map(s => randomSmall(s + 10, 4 + s % 4))

  /** `gid → (nv, branches)` of `df`, the encoding of `graphs`, each row's ids decoded. */
  private def decoded(df: DataFrame, graphs: Seq[LabeledGraph]): Map[Long, (Int, Seq[String])] = {
    val decode = TestGraphs.branchDecoder(graphs)
    df.collect().map(r => r.getLong(0) -> (r.getInt(1), decode(r.getSeq[Int](2)))).toMap
  }

  test("toBranchDf holds exactly gid, nv and branches, with every graph's id and size") {
    val df = GraphFrames.toBranchDf(spark, graphs)
    assert(df.columns.toSeq == Seq("gid", "nv", "branches"))
    val rows = decoded(df, graphs)
    assert(rows.size == graphs.size)
    graphs.foreach(g => assert(rows(g.id) == (g.n, g.branches.toSeq), s"gid=${g.id}"))
  }

  test("dictionary ids are the ranks of the database's sorted distinct branches") {
    val df = GraphFrames.toBranchDf(spark, graphs)
    val dict = GraphFrames.dictionary(df)
    // An id is the rank of its branch among the database's distinct branches.
    graphs.flatMap(_.branches).distinct.sorted.zipWithIndex.foreach { case (b, i) => assert(dict.id(b) == i, b) }
    val rows = decoded(df, graphs)
    graphs.foreach(g => assert(rows(g.id)._2 == g.branches.toSeq, s"gid=${g.id}"))
  }

  test("toBranchDf rejects a database with a duplicate graph id, naming the id") {
    val e = intercept[IllegalArgumentException](
      GraphFrames.toBranchDf(spark, graphs :+ randomSmall(3, 5).copy(id = 424242L) :+ g2.copy(id = 424242L)))
    assert(e.getMessage.contains("duplicate graph id 424242"))
  }

  test("the planned RDD of the n = 2000 Syn-lite subset serializes with none of its branch signatures") {
    // Thousands of distinct branches: a dictionary in the lineage would ship
    // with every query's task binary.
    val ds = Datasets.synSubset(2000, scaleFree = true)
    val sigs = ds.graphs.flatMap(_.branches).distinct
    assert(sigs.size > 1000)
    val df = GraphFrames.toBranchDf(spark, ds.graphs)
    val buf = SparkEnv.get.closureSerializer.newInstance().serialize(df.queryExecution.toRdd)
    val bytes = new Array[Byte](buf.remaining)
    buf.get(bytes)
    // Latin-1 maps bytes to chars one to one, so a substring is a byte run.
    val text = new String(bytes, ISO_8859_1)
    sigs.foreach(sig => assert(!text.contains(new String(sig.getBytes(UTF_8), ISO_8859_1)), sig))
  }

  test("alphabetSizes and dictionary reject a DataFrame that toBranchDf did not build") {
    val s = spark
    import s.implicits._
    val bare = Seq((1L, 1, Seq(0))).toDF("gid", "nv", "branches")
    for (lookup <- Seq[DataFrame => Any](GraphFrames.alphabetSizes, GraphFrames.dictionary)) {
      val e = intercept[IllegalArgumentException](lookup(bare))
      assert(e.getMessage.contains("toBranchDf"))
    }
  }

  test("a projection of an encoded DataFrame keeps its alphabet sizes and dictionary") {
    val df = GraphFrames.toBranchDf(spark, graphs)
    val projected = df.select(col("branches"), col("gid"))
    assert(GraphFrames.alphabetSizes(projected) == LabeledGraph.alphabetSizes(graphs))
    assert(GraphFrames.dictionary(projected) eq GraphFrames.dictionary(df))
  }

  test("4 threads encoding their own databases at once each find their own dictionary and alphabet sizes") {
    val dbs = (0 until 4).map(t => (1 to 12).map(s => randomSmall(1000L * t + s, 3 + s % 5, nVL = 2 + t, nEL = 1 + t)))
    assert(dbs.map(LabeledGraph.alphabetSizes).distinct.size == dbs.size)
    val start = new CyclicBarrier(dbs.size)
    val pool = Executors.newFixedThreadPool(dbs.size)
    try {
      val found = dbs.map(db => pool.submit { () =>
        start.await()
        val df = GraphFrames.toBranchDf(spark, db)
        (GraphFrames.dictionary(df), GraphFrames.alphabetSizes(df), decoded(df, db))
      })
      dbs.zip(found).foreach { case (db, f) =>
        val (dict, sizes, rows) = f.get(120, TimeUnit.SECONDS)
        val decode = TestGraphs.branchDecoder(db)
        db.flatMap(_.branches).distinct.foreach(b => assert(decode(Seq(dict.id(b))) == Seq(b), b))
        assert(sizes == LabeledGraph.alphabetSizes(db))
        db.foreach(g => assert(rows(g.id) == (g.n, g.branches.toSeq), s"gid=${g.id}"))
      }
    } finally pool.shutdown()
  }

  test("branch column is sorted ascending (canonical multiset order)") {
    val df = GraphFrames.toBranchDf(spark, graphs)
    df.select("branches").collect().foreach { r =>
      val b = r.getSeq[Int](0)
      assert(b == b.sorted)
    }
  }

  test("branchCounts explodes to one row per distinct branch with multiplicity") {
    val counts = CatalystGbd.branchCounts(spark, Seq(g1)).collect()
      .map(r => (r.getString(1), r.getLong(2))).toMap
    assert(counts == Map("A|y,y" -> 1L, "B|y,z" -> 1L, "C|y,z" -> 1L))
  }

  test("branchCounts multiplicities sum to |V| per graph") {
    val sums = CatalystGbd.branchCounts(spark, graphs).groupBy("gid")
      .sum("cnt").collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    graphs.foreach(g => assert(sums(g.id) == g.n.toLong, s"gid=${g.id}"))
  }

  test("branch multiplicities are counted (duplicate branches)") {
    val dup = LabeledGraph(42L, Array("A", "A", "A"), Array.empty)
    val counts = CatalystGbd.branchCounts(spark, Seq(dup)).collect()
      .map(r => (r.getString(1), r.getLong(2))).toMap
    assert(counts == Map("A|" -> 3L))
  }

  test("empty edge list and single-vertex graphs survive the encoder") {
    val tiny = LabeledGraph(77L, Array("X"), Array.empty)
    val empty = LabeledGraph(78L, Array.empty, Array.empty)
    val df = GraphFrames.toBranchDf(spark, Seq(tiny, empty))
    assert(df.collect().map(r => (r.getLong(0), r.getInt(1), r.getSeq[Int](2))).toSeq ==
      Seq((77L, 1, Seq(0)), (78L, 0, Seq.empty)))
    assert(decoded(df, Seq(tiny, empty)) == Map(77L -> (1, Seq("X|")), 78L -> (0, Seq.empty)))
  }
}
