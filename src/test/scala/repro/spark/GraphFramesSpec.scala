package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.Metadata

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

  // The branches are now extracted and interned on the driver inside
  // toBranchDf; the test keeps its original name.
  test("withBranches UDF equals the in-memory branch extraction") {
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

  test("the branches field metadata of the n = 2000 Syn-lite subset stays under 256 bytes") {
    // Thousands of distinct branches: a dictionary stored in the metadata
    // would ship with every query's task binary.
    val ds = Datasets.synSubset(2000, scaleFree = true)
    assert(ds.graphs.flatMap(_.branches).distinct.size > 1000)
    val df = GraphFrames.toBranchDf(spark, ds.graphs)
    val json = df.schema("branches").metadata.json
    assert(json.getBytes("UTF-8").length < 256, json)
  }

  test("alphabetSizes rejects a DataFrame whose branches field has no alphabet metadata") {
    val df = GraphFrames.toBranchDf(spark, graphs)
    assert(GraphFrames.alphabetSizes(df) == LabeledGraph.alphabetSizes(graphs))
    val bare = df.select(col("gid"), col("nv"), col("branches").as("branches", Metadata.empty))
    val e = intercept[IllegalArgumentException](GraphFrames.alphabetSizes(bare))
    assert(e.getMessage.contains("toBranchDf"))
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

  test("empty edge list and single-vertex graphs survive the codec") {
    val tiny = LabeledGraph(77L, Array("X"), Array.empty)
    val empty = LabeledGraph(78L, Array.empty, Array.empty)
    val df = GraphFrames.toBranchDf(spark, Seq(tiny, empty))
    assert(df.collect().map(r => (r.getLong(0), r.getInt(1), r.getSeq[Int](2))).toSeq ==
      Seq((77L, 1, Seq(0)), (78L, 0, Seq.empty)))
    assert(decoded(df, Seq(tiny, empty)) == Map(77L -> (1, Seq("X|")), 78L -> (0, Seq.empty)))
  }
}
