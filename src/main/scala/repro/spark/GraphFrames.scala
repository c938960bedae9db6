package repro.spark

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import scala.jdk.CollectionConverters._

import repro.graphs.{Edge, LabeledGraph}

/** Graph dataset → DataFrame encoder.
  *
  * One row per graph: `gid: long, nv: int, vlabels: array<string>,
  * edges: array<struct<src:int, dst:int, label:string>>`, plus the
  * pre-computed sorted branch multiset `branches: array<string>` (the paper
  * assumes accessory structures are stored with the graphs, Section 3).
  */
object GraphFrames {

  private val edgeType: StructType = StructType(Seq(
    StructField("src", IntegerType, nullable = false),
    StructField("dst", IntegerType, nullable = false),
    StructField("label", StringType, nullable = false)))

  private val schema: StructType = StructType(Seq(
    StructField("gid", LongType, nullable = false),
    StructField("nv", IntegerType, nullable = false),
    StructField("vlabels", ArrayType(StringType, containsNull = false), nullable = false),
    StructField("edges", ArrayType(edgeType, containsNull = false), nullable = false)))

  /** Encode graphs with branches pre-computed — the standard input of the
    * GBD/GBDA operators. Branch extraction (Def. 2) runs as a DataFrame UDF
    * that appends the sorted branch-signature multiset column.
    */
  def toBranchDf(spark: SparkSession, graphs: Seq[LabeledGraph]): DataFrame = {
    val rows = graphs.map { g =>
      Row(g.id, g.n, g.vertexLabels.toSeq, g.edges.toSeq.map(e => Row(e.u, e.v, e.label)))
    }
    val branchesUdf = udf { (vlabels: Seq[String], edges: Seq[Row]) =>
      LabeledGraph.branchesOf(
        vlabels.toArray,
        edges.map(r => Edge(r.getInt(0), r.getInt(1), r.getString(2))).toArray).toSeq
    }
    spark.createDataFrame(rows.asJava, schema)
      .withColumn("branches", branchesUdf(col("vlabels"), col("edges")))
  }

  /** Exploded per-branch counts `(gid, sig, cnt)` — the pure-Catalyst GBD
    * path and the representation handed to the DuckDB oracle.
    */
  def branchCounts(dfWithBranches: DataFrame): DataFrame =
    dfWithBranches
      .select(col("gid"), explode(col("branches")).as("sig"))
      .groupBy("gid", "sig")
      .agg(count(lit(1)).as("cnt"))
}
