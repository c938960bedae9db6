package repro.spark

import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.Metadata

import repro.{CatalystGbd, SparkSpec}
import repro.TestGraphs.{g1, g2, randomSmall}
import repro.graphs.LabeledGraph

class GraphFramesSpec extends SparkSpec {

  private lazy val graphs = Seq(g1, g2) ++ (1 to 8).map(s => randomSmall(s + 10, 4 + s % 4))

  test("toBranchDf holds exactly gid, nv and branches, with every graph's id and size") {
    val df = GraphFrames.toBranchDf(spark, graphs)
    assert(df.columns.toSeq == Seq("gid", "nv", "branches"))
    val rows = df.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(rows.size == graphs.size)
    graphs.foreach(g => assert(rows(g.id) == g.n, s"gid=${g.id}"))
  }

  // The branches are now extracted on the executors inside toBranchDf; the
  // test keeps its original name.
  test("withBranches UDF equals the in-memory branch extraction") {
    val df = GraphFrames.toBranchDf(spark, graphs)
    val rows = df.select("gid", "branches").collect()
      .map(r => r.getLong(0) -> r.getSeq[String](1)).toMap
    graphs.foreach { g =>
      assert(rows(g.id) == g.branches.toSeq, s"gid=${g.id}")
    }
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
      val b = r.getSeq[String](0)
      assert(b == b.sorted)
    }
  }

  test("branchCounts explodes to one row per distinct branch with multiplicity") {
    val df = GraphFrames.toBranchDf(spark, Seq(g1))
    val counts = CatalystGbd.branchCounts(df).collect()
      .map(r => (r.getString(1), r.getLong(2))).toMap
    assert(counts == Map("A|y,y" -> 1L, "B|y,z" -> 1L, "C|y,z" -> 1L))
  }

  test("branchCounts multiplicities sum to |V| per graph") {
    val df = GraphFrames.toBranchDf(spark, graphs)
    val sums = CatalystGbd.branchCounts(df).groupBy("gid")
      .sum("cnt").collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    graphs.foreach(g => assert(sums(g.id) == g.n.toLong, s"gid=${g.id}"))
  }

  test("branch multiplicities are counted (duplicate branches)") {
    val dup = LabeledGraph(42L, Array("A", "A", "A"), Array.empty)
    val df = GraphFrames.toBranchDf(spark, Seq(dup))
    val counts = CatalystGbd.branchCounts(df).collect()
      .map(r => (r.getString(1), r.getLong(2))).toMap
    assert(counts == Map("A|" -> 3L))
  }

  test("empty edge list and single-vertex graphs survive the codec") {
    val tiny = LabeledGraph(77L, Array("X"), Array.empty)
    val empty = LabeledGraph(78L, Array.empty, Array.empty)
    val rows = GraphFrames.toBranchDf(spark, Seq(tiny, empty)).collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getSeq[String](2)))
    assert(rows.toSeq == Seq((77L, 1, Seq("X|")), (78L, 0, Seq.empty)))
  }
}
