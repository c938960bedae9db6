package repro.graphs

/** Dictionary encoding of branch signatures (Def. 2), as column stores
  * encode strings: the distinct signatures of a database, sorted by
  * `String.compareTo`, so that a signature's id is its rank. Ranks keep
  * equality and order, so a sorted branch multiset becomes a sorted id array
  * and GBD (Def. 4), which only asks whether two branches are equal, is the
  * same over ids as over the signatures.
  */
final class BranchDictionary private (sigs: Array[String]) {

  /** The id of `sig`, or −1 if no graph of the database has that branch. */
  def id(sig: String): Int = {
    val i = java.util.Arrays.binarySearch(sigs.asInstanceOf[Array[AnyRef]], sig)
    if (i >= 0) i else -1
  }

  /** The ids of a branch multiset, sorted. A branch absent from the
    * dictionary maps to −1 (sorted first), which
    * [[repro.core.GbdaOps.gbdFromSortedIds]] counts as equal to no branch.
    */
  def ids(branches: Array[String]): Array[Int] = {
    val out = new Array[Int](branches.length)
    var i = 0
    while (i < out.length) { out(i) = id(branches(i)); i += 1 }
    java.util.Arrays.sort(out)
    out
  }
}

object BranchDictionary {

  /** The dictionary of the distinct signatures in `branchSets`. */
  def of(branchSets: Iterable[Array[String]]): BranchDictionary = {
    val distinct = new java.util.HashSet[String]()
    branchSets.foreach(_.foreach(distinct.add))
    val sigs = distinct.toArray(new Array[String](0))
    java.util.Arrays.sort(sigs.asInstanceOf[Array[AnyRef]])
    new BranchDictionary(sigs)
  }
}
