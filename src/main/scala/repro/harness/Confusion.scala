package repro.harness

/** Confusion counts of a similarity search against ground truth, over
  * (query, graph) pairs: true positives, false positives, false negatives.
  */
final case class Confusion(tp: Int, fp: Int, fn: Int) {
  def precision: Double = if (tp + fp == 0) 1.0 else tp.toDouble / (tp + fp)
  def recall: Double = if (tp + fn == 0) 1.0 else tp.toDouble / (tp + fn)
  def f1: Double = {
    val p = precision; val r = recall
    if (p + r == 0) 0.0 else 2 * p * r / (p + r)
  }

  /** The table cells under [[Confusion.Header]]. */
  def cells: Seq[String] =
    Seq(TableText.fmt(precision), TableText.fmt(recall), TableText.fmt(f1), tp.toString, fp.toString, fn.toString)
}

object Confusion {

  /** Column names of [[Confusion.cells]]. */
  val Header: Seq[String] = Seq("precision", "recall", "F1", "TP", "FP", "FN")

  /** Count `pairs` by whether each is `actual`ly similar and `predicted` so. */
  def count[A](pairs: Seq[A])(actual: A => Boolean, predicted: A => Boolean): Confusion = {
    val outcomes = pairs.map(a => (actual(a), predicted(a)))
    Confusion(outcomes.count(_ == (true, true)), outcomes.count(_ == (false, true)),
      outcomes.count(_ == (true, false)))
  }
}
