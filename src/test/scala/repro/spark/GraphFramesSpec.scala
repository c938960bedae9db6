package repro.spark

import org.apache.spark.sql.Row

import repro.SparkSpec
import repro.TestGraphs.{g1, g2, randomSmall}
import repro.graphs.{Edge, LabeledGraph}

class GraphFramesSpec extends SparkSpec {

  private lazy val graphs = Seq(g1, g2) ++ (1 to 8).map(s => randomSmall(s + 10, 4 + s % 4))

  test("toBranchDf preserves ids, sizes, labels and edges") {
    val rows = GraphFrames.toBranchDf(spark, graphs).select("gid", "nv", "vlabels", "edges").collect()
      .map(r => r.getLong(0) -> r).toMap
    assert(rows.size == graphs.size)
    graphs.foreach { g =>
      val r = rows(g.id)
      assert(r.getInt(1) == g.n, s"gid=${g.id}")
      assert(r.getSeq[String](2) == g.vertexLabels.toSeq, s"gid=${g.id}")
      assert(r.getSeq[Row](3).map(e => Edge(e.getInt(0), e.getInt(1), e.getString(2))) == g.edges.toSeq,
        s"gid=${g.id}")
    }
  }

  test("withBranches UDF equals the in-memory branch extraction") {
    val df = GraphFrames.toBranchDf(spark, graphs)
    val rows = df.select("gid", "branches").collect()
      .map(r => r.getLong(0) -> r.getSeq[String](1)).toMap
    graphs.foreach { g =>
      assert(rows(g.id) == g.branches.toSeq, s"gid=${g.id}")
    }
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
    val counts = GraphFrames.branchCounts(df).collect()
      .map(r => (r.getString(1), r.getLong(2))).toMap
    assert(counts == Map("A|y,y" -> 1L, "B|y,z" -> 1L, "C|y,z" -> 1L))
  }

  test("branchCounts multiplicities sum to |V| per graph") {
    val df = GraphFrames.toBranchDf(spark, graphs)
    val sums = GraphFrames.branchCounts(df).groupBy("gid")
      .sum("cnt").collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    graphs.foreach(g => assert(sums(g.id) == g.n.toLong, s"gid=${g.id}"))
  }

  test("branch multiplicities are counted (duplicate branches)") {
    val dup = LabeledGraph(42L, Array("A", "A", "A"), Array.empty)
    val df = GraphFrames.toBranchDf(spark, Seq(dup))
    val counts = GraphFrames.branchCounts(df).collect()
      .map(r => (r.getString(1), r.getLong(2))).toMap
    assert(counts == Map("A|" -> 3L))
  }

  test("empty edge list and single-vertex graphs survive the codec") {
    val tiny = LabeledGraph(77L, Array("X"), Array.empty)
    val r = GraphFrames.toBranchDf(spark, Seq(tiny)).select("gid", "nv", "vlabels", "edges", "branches").head()
    assert(r.getLong(0) == 77L && r.getInt(1) == 1 && r.getSeq[String](2) == Seq("X"))
    assert(r.getSeq[Row](3).isEmpty && r.getSeq[String](4) == Seq("X|"))
  }
}
