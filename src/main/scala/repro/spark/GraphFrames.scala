package repro.spark

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

import repro.graphs.LabeledGraph

/** Graph dataset → DataFrame encoder.
  *
  * One row per graph with exactly what GBDA reads: `gid: long, nv: int,
  * branches: array<string>`, the sorted branch multiset B_G (the paper
  * assumes accessory structures are stored with the graphs, Section 3). The
  * database's alphabet sizes |L_V| and |L_E|, which enter D (Eq. 13), are
  * stored as metadata of the `branches` field ([[alphabetSizes]]).
  */
object GraphFrames {

  private val VertexLabelsKey = "nVertexLabels"
  private val EdgeLabelsKey = "nEdgeLabels"

  /** Encode graphs as their branch rows — the standard input of the GBD/GBDA
    * operators.
    *
    * The graphs reach the executors once, as a broadcast. The rows are built
    * from an RDD of `defaultParallelism` slice indices, each slice extracting
    * the branches (Def. 2) of its contiguous share of the broadcast, so the
    * lineage holds no driver rows: a partition object is a few bytes whatever
    * |D| is, and a job over the cached DataFrame ships no graph data in its
    * tasks. Row order is the order of `graphs`.
    */
  def toBranchDf(spark: SparkSession, graphs: Seq[LabeledGraph]): DataFrame = {
    val sc = spark.sparkContext
    val shipped = sc.broadcast(graphs.toArray)
    val slices = sc.defaultParallelism
    val rows = sc.parallelize(0 until slices, slices).flatMap { s =>
      val gs = shipped.value
      gs.slice((s.toLong * gs.length / slices).toInt, ((s + 1L) * gs.length / slices).toInt).map { g =>
        Row(g.id, g.n, LabeledGraph.branchesOf(g.vertexLabels, g.edges).toSeq)
      }
    }
    val (nVL, nEL) = LabeledGraph.alphabetSizes(graphs)
    val alphabet = new MetadataBuilder().putLong(VertexLabelsKey, nVL).putLong(EdgeLabelsKey, nEL).build()
    spark.createDataFrame(rows, StructType(Seq(
      StructField("gid", LongType, nullable = false),
      StructField("nv", IntegerType, nullable = false),
      StructField("branches", ArrayType(StringType, containsNull = false), nullable = false, alphabet))))
  }

  /** `(|L_V|, |L_E|)` of the database encoded by [[toBranchDf]], read from
    * the metadata of its `branches` field.
    */
  def alphabetSizes(graphs: DataFrame): (Int, Int) = {
    val meta = graphs.schema("branches").metadata
    require(meta.contains(VertexLabelsKey) && meta.contains(EdgeLabelsKey),
      "the branches field carries no alphabet sizes |L_V|, |L_E|: encode the graphs with GraphFrames.toBranchDf")
    (meta.getLong(VertexLabelsKey).toInt, meta.getLong(EdgeLabelsKey).toInt)
  }
}
