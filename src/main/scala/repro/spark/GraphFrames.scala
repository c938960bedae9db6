package repro.spark

import scala.collection.parallel.CollectionConverters._

import org.apache.spark.{Partition, SparkContext, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.types._

import repro.graphs.{BranchDictionary, LabeledGraph}

/** Graph dataset → DataFrame encoder.
  *
  * One row per graph with exactly what GBDA reads: `gid: long, nv: int,
  * branches: array<int>`, the sorted branch multiset B_G (the paper assumes
  * accessory structures are stored with the graphs, Section 3) as ids of the
  * database's [[BranchDictionary]]. The dictionary and the alphabet sizes
  * |L_V|, |L_E|, which enter D (Eq. 13), stay on the driver, held by the RDD
  * at the root of the DataFrame's lineage ([[dictionary]], [[alphabetSizes]]).
  */
object GraphFrames {

  /** Encode graphs as their branch rows — the standard input of the GBD/GBDA
    * operators.
    *
    * The driver extracts every graph's branches (Def. 2), in parallel,
    * interns them into one [[BranchDictionary]] and broadcasts the id rows
    * once. Partition `i` of the root RDD, one of `defaultParallelism`, reads
    * the i-th contiguous share of the broadcast, so the lineage holds no
    * driver rows: a partition object is a few bytes whatever |D| is, and a
    * job over the cached DataFrame ships no graph data in its tasks. Row
    * order is the order of `graphs`.
    */
  def toBranchDf(spark: SparkSession, graphs: Seq[LabeledGraph]): DataFrame = {
    val seen = new java.util.HashSet[Long]()
    graphs.foreach(g => require(seen.add(g.id), s"duplicate graph id ${g.id}: graph ids must be unique in a database"))
    val branches = graphs.par.map(g => LabeledGraph.branchesOf(g.vertexLabels, g.edges)).seq
    val dict = BranchDictionary.of(branches)
    val ids = branches.par.map(dict.ids).seq
    val sc = spark.sparkContext
    val shipped = sc.broadcast(graphs.iterator.zip(ids.iterator).map { case (g, b) => (g.id, g.n, b) }.toArray)
    val rows = new EncodedRdd(sc, sc.defaultParallelism, shipped, Encoding(dict, LabeledGraph.alphabetSizes(graphs)))
    spark.createDataFrame(rows, StructType(Seq(
      StructField("gid", LongType, nullable = false),
      StructField("nv", IntegerType, nullable = false),
      StructField("branches", ArrayType(IntegerType, containsNull = false), nullable = false))))
  }

  /** `(|L_V|, |L_E|)` of the database encoded by [[toBranchDf]]. */
  def alphabetSizes(graphs: DataFrame): (Int, Int) = encoding(graphs).alphabetSizes

  /** The dictionary of the database encoded by [[toBranchDf]]. */
  def dictionary(graphs: DataFrame): BranchDictionary = encoding(graphs).dictionary

  private final case class Encoding(dictionary: BranchDictionary, alphabetSizes: (Int, Int))

  /** The [[Encoding]] held by the [[EncodedRdd]] under the RDD relation of
    * `graphs`' logical plan, which a projection or a cache keeps.
    */
  private def encoding(graphs: DataFrame): Encoding = {
    def find(rdd: RDD[_]): Option[Encoding] = rdd match {
      case e: EncodedRdd => Some(e.encoding)
      case _ => rdd.dependencies.iterator.flatMap(d => find(d.rdd)).nextOption()
    }
    val found = graphs.queryExecution.logical.collectFirst { case r: LogicalRDD => r.rdd }.flatMap(find)
    require(found.isDefined, "the DataFrame holds no encoded database: encode the graphs with GraphFrames.toBranchDf")
    found.get
  }

  /** The root of an encoded DataFrame's lineage: partition `i` of `n` yields
    * the rows of the i-th contiguous share of `shipped`. `@transient` keeps
    * the encoding, and so the dictionary's strings, on the driver, out of
    * every task.
    */
  private final class EncodedRdd(
      sc: SparkContext,
      n: Int,
      shipped: Broadcast[Array[(Long, Int, Array[Int])]],
      @transient val encoding: Encoding) extends RDD[Row](sc, Nil) {
    override protected def getPartitions: Array[Partition] = Array.tabulate[Partition](n)(SlicePartition(_))
    override def compute(split: Partition, context: TaskContext): Iterator[Row] = {
      val rs = shipped.value
      rs.slice((split.index.toLong * rs.length / n).toInt, ((split.index + 1L) * rs.length / n).toInt).iterator.map {
        case (gid, nv, b) => Row(gid, nv, b)
      }
    }
  }

  private final case class SlicePartition(index: Int) extends Partition
}
