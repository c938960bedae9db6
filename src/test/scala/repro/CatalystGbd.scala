package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.graphs.LabeledGraph

/** GBD (Def. 4) as pure Catalyst over exploded branch counts: the
  * SQL-expressible reference of the distributed GBD. The DuckDB oracle
  * ([[Oracle]]) checks it with the same SQL, and the served search
  * (`repro.spark.GbdaSearch.search`) is checked against it, which closes
  * the chain served search ≡ `Gbda.search` ≡ [[gbdVsAllJoin]] ≡ DuckDB.
  *
  * Its rows are built from each graph's `LabeledGraph.branches` strings,
  * not from the branch ids of `repro.spark.GraphFrames.toBranchDf`, so the
  * check is independent of the encoder's dictionary.
  */
object CatalystGbd {

  /** `(gid, nv, branches: array<string>)` of `graphs`, from `LabeledGraph.branches`. */
  private def stringRows(spark: SparkSession, graphs: Seq[LabeledGraph]): DataFrame = {
    import spark.implicits._
    graphs.map(g => (g.id, g.n, g.branches.toSeq)).toDF("gid", "nv", "branches")
  }

  /** Exploded per-branch counts `(gid, sig, cnt)` of `graphs`: the
    * representation handed to the DuckDB oracle.
    */
  def branchCounts(spark: SparkSession, graphs: Seq[LabeledGraph]): DataFrame =
    stringRows(spark, graphs)
      .select(col("gid"), explode(col("branches")).as("sig"))
      .groupBy("gid", "sig")
      .agg(count(lit(1)).as("cnt"))

  /** GBD(Q, G) for every graph G: explode → groupBy → broadcast join →
    * Σ min(cnt, qcnt). Returns `(gid, gbd)`.
    */
  def gbdVsAllJoin(spark: SparkSession, graphs: Seq[LabeledGraph], query: LabeledGraph): DataFrame = {
    import spark.implicits._
    val qCounts = query.branches.toSeq
      .groupBy(identity).map { case (s, xs) => (s, xs.size.toLong) }.toSeq
    val qDf = qCounts.toDF("sig", "qcnt")
    val inter = branchCounts(spark, graphs)
      .join(broadcast(qDf), "sig")
      .groupBy("gid")
      .agg(sum(least(col("cnt"), col("qcnt"))).as("inter"))
    stringRows(spark, graphs).select("gid", "nv")
      .join(inter, Seq("gid"), "left_outer")
      .select(
        col("gid"),
        (greatest(col("nv"), lit(query.n)).cast("long") - coalesce(col("inter"), lit(0L)))
          .cast("int").as("gbd"))
  }
}
