package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.core.GbdaOps

/** Distributed pairwise GBD (Def. 4) over graph-dataset DataFrames:
  * [[pairwiseGbd]] runs the two-pointer kernel (the O(nd) algorithm of
  * Section 3) over the branch ids of an explicit pair list, as a shuffle
  * join. It is the reference that the GBD prior's sample
  * ([[GbdaSearch.fitModel]], which computes the sampled pairs' GBDs on the
  * driver) is checked against.
  */
object GbdSpark {

  /** GBD for an explicit pair list `(gid1, gid2)`, the sampling step of the
    * GBD prior (Section 5.2.1, Steps 1.1–1.2) as a distributed join; the
    * reference for [[GbdaSearch.fitGbdPrior]]'s sample.
    */
  def pairwiseGbd(graphs: DataFrame, pairs: DataFrame): DataFrame = {
    val gbdUdf = udf { (b1: Seq[Int], b2: Seq[Int]) =>
      GbdaOps.gbdFromSortedIds(b1.toArray, b2.toArray)
    }
    val left = graphs.select(col("gid").as("gid1"), col("branches").as("b1"))
    val right = graphs.select(col("gid").as("gid2"), col("branches").as("b2"))
    pairs
      .join(left, "gid1")
      .join(right, "gid2")
      .select(col("gid1"), col("gid2"), gbdUdf(col("b1"), col("b2")).as("gbd"))
  }
}
