package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.GbdaOps
import repro.graphs.LabeledGraph

/** Distributed GBD computation (Def. 4) over graph-dataset DataFrames.
  *
  *   - [[gbdVsAllJoin]]: a pure-Catalyst path over exploded branch counts
  *     (explode → groupBy → broadcast join → Σ min(cnt, qcnt)). It is
  *     SQL-expressible, so the test suite checks it against DuckDB
  *     (`repro.Oracle`), and the served search ([[GbdaSearch.search]]) is
  *     checked against it.
  *   - [[pairwiseGbd]]: the two-pointer kernel (the O(nd) algorithm of
  *     Section 3) over an explicit pair list, as a shuffle join. It is the
  *     reference that the GBD prior's sample ([[GbdaSearch.fitModel]], which
  *     computes the sampled pairs' GBDs on the driver) is checked against.
  */
object GbdSpark {

  /** GBD(Q, G) for every graph G via the Catalyst broadcast-join path.
    * Returns `(gid, gbd)`.
    */
  def gbdVsAllJoin(graphs: DataFrame, query: LabeledGraph): DataFrame = {
    val spark = graphs.sparkSession
    import spark.implicits._
    val qCounts = query.branches.toSeq
      .groupBy(identity).map { case (s, xs) => (s, xs.size.toLong) }.toSeq
    val qDf = qCounts.toDF("sig", "qcnt")
    val inter = GraphFrames.branchCounts(graphs)
      .join(broadcast(qDf), "sig")
      .groupBy("gid")
      .agg(sum(least(col("cnt"), col("qcnt"))).as("inter"))
    graphs.select("gid", "nv")
      .join(inter, Seq("gid"), "left_outer")
      .select(
        col("gid"),
        (greatest(col("nv"), lit(query.n)).cast("long") - coalesce(col("inter"), lit(0L)))
          .cast("int").as("gbd"))
  }

  /** GBD for an explicit pair list `(gid1, gid2)`, the sampling step of the
    * GBD prior (Section 5.2.1, Steps 1.1–1.2) as a distributed join; the
    * reference for [[GbdaSearch.fitGbdPrior]]'s sample.
    */
  def pairwiseGbd(graphs: DataFrame, pairs: DataFrame): DataFrame = {
    val gbdUdf = udf { (b1: Seq[String], b2: Seq[String]) =>
      GbdaOps.gbdFromSortedBranches(b1.toArray, b2.toArray)
    }
    val left = graphs.select(col("gid").as("gid1"), col("branches").as("b1"))
    val right = graphs.select(col("gid").as("gid2"), col("branches").as("b2"))
    pairs
      .join(left, "gid1")
      .join(right, "gid2")
      .select(col("gid1"), col("gid2"), gbdUdf(col("b1"), col("b2")).as("gbd"))
  }
}
