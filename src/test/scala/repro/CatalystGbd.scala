package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.graphs.LabeledGraph

/** GBD (Def. 4) as pure Catalyst over exploded branch counts: the
  * SQL-expressible reference of the distributed GBD. The DuckDB oracle
  * ([[Oracle]]) checks it with the same SQL, and the served search
  * (`repro.spark.GbdaSearch.search`) is checked against it, which closes
  * the chain served search ≡ `Gbda.search` ≡ [[gbdVsAllJoin]] ≡ DuckDB.
  */
object CatalystGbd {

  /** Exploded per-branch counts `(gid, sig, cnt)` of a branch DataFrame
    * from `repro.spark.GraphFrames.toBranchDf`: the representation handed to
    * the DuckDB oracle.
    */
  def branchCounts(dfWithBranches: DataFrame): DataFrame =
    dfWithBranches
      .select(col("gid"), explode(col("branches")).as("sig"))
      .groupBy("gid", "sig")
      .agg(count(lit(1)).as("cnt"))

  /** GBD(Q, G) for every graph G: explode → groupBy → broadcast join →
    * Σ min(cnt, qcnt). Returns `(gid, gbd)`.
    */
  def gbdVsAllJoin(graphs: DataFrame, query: LabeledGraph): DataFrame = {
    val spark = graphs.sparkSession
    import spark.implicits._
    val qCounts = query.branches.toSeq
      .groupBy(identity).map { case (s, xs) => (s, xs.size.toLong) }.toSeq
    val qDf = qCounts.toDF("sig", "qcnt")
    val inter = branchCounts(graphs)
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
}
