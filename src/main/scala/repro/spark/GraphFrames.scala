package repro.spark

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

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
    *
    * The graphs reach the executors once, as a broadcast. The rows are built
    * from an RDD of `defaultParallelism` slice indices, each slice reading its
    * contiguous share of the broadcast, so the lineage holds no driver rows:
    * a partition object is a few bytes whatever |D| is, and a job over the
    * cached DataFrame ships no graph data in its tasks. Row order is the
    * order of `graphs`.
    */
  def toBranchDf(spark: SparkSession, graphs: Seq[LabeledGraph]): DataFrame = {
    val sc = spark.sparkContext
    val shipped = sc.broadcast(graphs.toArray)
    val slices = sc.defaultParallelism
    val rows = sc.parallelize(0 until slices, slices).flatMap { s =>
      val gs = shipped.value
      gs.slice((s.toLong * gs.length / slices).toInt, ((s + 1L) * gs.length / slices).toInt).map { g =>
        Row(g.id, g.n, g.vertexLabels.toSeq, g.edges.toSeq.map(e => Row(e.u, e.v, e.label)))
      }
    }
    val branchesUdf = udf { (vlabels: Seq[String], edges: Seq[Row]) =>
      LabeledGraph.branchesOf(
        vlabels.toArray,
        edges.map(r => Edge(r.getInt(0), r.getInt(1), r.getString(2))).toArray).toSeq
    }
    spark.createDataFrame(rows, schema)
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
