package repro.spark

import java.lang.ref.WeakReference
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.collection.parallel.CollectionConverters._

import org.apache.spark.{Partition, SparkContext, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

import repro.graphs.{BranchDictionary, LabeledGraph}

/** Graph dataset → DataFrame encoder.
  *
  * One row per graph with exactly what GBDA reads: `gid: long, nv: int,
  * branches: array<int>`, the sorted branch multiset B_G (the paper assumes
  * accessory structures are stored with the graphs, Section 3) as ids of the
  * database's [[BranchDictionary]]. The database's alphabet sizes |L_V| and
  * |L_E|, which enter D (Eq. 13), are metadata of the `branches` field
  * ([[alphabetSizes]]), and so is a token that finds the dictionary, which
  * stays on the driver ([[dictionary]]).
  */
object GraphFrames {

  private val VertexLabelsKey = "nVertexLabels"
  private val EdgeLabelsKey = "nEdgeLabels"
  private val DictionaryKey = "branchDictionary"

  /** Each encoded database's dictionary by its token. The entry is weak: the
    * dictionary is held by the slice RDD at the root of the DataFrame's
    * lineage, so it lives as long as a plan over the DataFrame does.
    */
  private val dictionaries = new ConcurrentHashMap[java.lang.Long, WeakReference[BranchDictionary]]()
  private val tokens = new AtomicLong()

  /** Encode graphs as their branch rows — the standard input of the GBD/GBDA
    * operators.
    *
    * The driver extracts every graph's branches (Def. 2), in parallel,
    * interns them into one [[BranchDictionary]] and broadcasts the id rows
    * once. The rows are built from an RDD of `defaultParallelism` slice
    * indices, each slice reading its contiguous share of the broadcast, so
    * the lineage holds no driver rows: a partition object is a few bytes
    * whatever |D| is, and a job over the cached DataFrame ships no graph
    * data in its tasks. Row order is the order of `graphs`.
    */
  def toBranchDf(spark: SparkSession, graphs: Seq[LabeledGraph]): DataFrame = {
    val seen = new java.util.HashSet[Long]()
    graphs.foreach(g => require(seen.add(g.id), s"duplicate graph id ${g.id}: graph ids must be unique in a database"))
    val branches = graphs.par.map(g => LabeledGraph.branchesOf(g.vertexLabels, g.edges)).seq
    val dict = BranchDictionary.of(branches)
    val ids = branches.par.map(dict.ids).seq
    val sc = spark.sparkContext
    val shipped = sc.broadcast(graphs.iterator.zip(ids.iterator).map { case (g, b) => (g.id, g.n, b) }.toArray)
    val slices = sc.defaultParallelism
    val rows = new SliceRdd(sc, slices, dict).flatMap { s =>
      val rs = shipped.value
      rs.slice((s.toLong * rs.length / slices).toInt, ((s + 1L) * rs.length / slices).toInt).map {
        case (gid, nv, b) => Row(gid, nv, b)
      }
    }
    val token = tokens.incrementAndGet()
    dictionaries.values.removeIf(_.get == null)
    dictionaries.put(token, new WeakReference(dict))
    val (nVL, nEL) = LabeledGraph.alphabetSizes(graphs)
    val meta = new MetadataBuilder()
      .putLong(VertexLabelsKey, nVL).putLong(EdgeLabelsKey, nEL).putLong(DictionaryKey, token).build()
    spark.createDataFrame(rows, StructType(Seq(
      StructField("gid", LongType, nullable = false),
      StructField("nv", IntegerType, nullable = false),
      StructField("branches", ArrayType(IntegerType, containsNull = false), nullable = false, meta))))
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

  /** The dictionary of the database encoded by [[toBranchDf]], found through
    * the token in the metadata of its `branches` field.
    */
  def dictionary(graphs: DataFrame): BranchDictionary = {
    val meta = graphs.schema("branches").metadata
    require(meta.contains(DictionaryKey),
      "the branches field carries no dictionary token: encode the graphs with GraphFrames.toBranchDf")
    val dict = Option(dictionaries.get(meta.getLong(DictionaryKey))).flatMap(r => Option(r.get))
    require(dict.isDefined, s"no branch dictionary with token ${meta.getLong(DictionaryKey)} in this JVM")
    dict.get
  }

  /** Partition `i` of `n` yields the slice index `i`. `dictionary` is never
    * read: the field ties the dictionary's lifetime to the lineage of the
    * DataFrame built on this RDD, and `@transient` keeps it out of every
    * task.
    */
  private final class SliceRdd(sc: SparkContext, n: Int, @transient val dictionary: BranchDictionary)
      extends RDD[Int](sc, Nil) {
    override protected def getPartitions: Array[Partition] = Array.tabulate[Partition](n)(SlicePartition(_))
    override def compute(split: Partition, context: TaskContext): Iterator[Int] = Iterator.single(split.index)
  }

  private final case class SlicePartition(index: Int) extends Partition
}
