package repro.baselines

import repro.core.GbdaOps
import repro.graphs.LabeledGraph

/** Thrown when a baseline would exceed its configured memory envelope —
  * mirrors the paper's observation that LSAP/Seriation run out of memory on
  * large graphs while GBDA keeps going (Section 7.3.1).
  */
final case class GraphTooLargeException(n: Int, limit: Int, method: String)
  extends RuntimeException(s"$method cannot handle n=$n (> limit $limit) within the memory envelope")

/** LSAP baseline: Riesen–Bunke bipartite GED approximation [14].
  *
  * Builds the (n₁+n₂)×(n₁+n₂) cost matrix (vertex substitution cost = label
  * mismatch + half the multiset distance between incident edge labels;
  * deletion/insertion cost = 1 + degree/2), solves the assignment with a
  * pluggable LSAP solver, then returns the *induced edit-path cost* of the
  * resulting vertex mapping — a true upper bound on GED, as in the original
  * method.
  */
object BipartiteGed {

  /** Guard: the dense cost matrix is O((n₁+n₂)²) doubles. */
  val MaxN = 4096

  def costMatrix(g1: LabeledGraph, g2: LabeledGraph): Array[Array[Double]] = {
    val n1 = g1.n
    val n2 = g2.n
    val n = n1 + n2
    val Inf = 1e15
    val c = Array.fill(n, n)(0.0)
    val inc1 = incidentLabels(g1)
    val inc2 = incidentLabels(g2)
    var i = 0
    while (i < n) {
      var j = 0
      while (j < n) {
        c(i)(j) =
          if (i < n1 && j < n2) // substitution
            (if (g1.vertexLabels(i) == g2.vertexLabels(j)) 0.0 else 1.0) +
              GbdaOps.gbdFromSortedBranches(inc1(i), inc2(j)) / 2.0
          else if (i < n1 && j >= n2) // deletion (only to its own ε-slot)
            if (j - n2 == i) 1.0 + inc1(i).length / 2.0 else Inf
          else if (i >= n1 && j < n2) // insertion
            if (i - n1 == j) 1.0 + inc2(j).length / 2.0 else Inf
          else 0.0 // ε → ε
        j += 1
      }
      i += 1
    }
    c
  }

  /** LSAP estimate with the Hungarian solver (O(n³)). */
  def estimateHungarian(g1: LabeledGraph, g2: LabeledGraph): Int = {
    guard(g1, g2, "LSAP")
    if (g1.n + g2.n == 0) 0 // two empty graphs: the solver rejects their 0×0 cost matrix
    else {
      val (assign, _) = Hungarian.solve(costMatrix(g1, g2))
      inducedCost(g1, g2, mappingFromAssignment(g1.n, g2.n, assign))
    }
  }

  /** Vertex mapping i → j ∈ [0,n₂) or −1 (deletion) from a square assignment. */
  def mappingFromAssignment(n1: Int, n2: Int, assign: Array[Int]): Array[Int] =
    Array.tabulate(n1)(i => if (assign(i) < n2) assign(i) else -1)

  /** True edit cost induced by a (possibly partial) vertex mapping: vertex
    * substitutions/deletions/insertions plus all implied edge operations.
    * Always ≥ GED (it is the length of a concrete edit script).
    */
  def inducedCost(g1: LabeledGraph, g2: LabeledGraph, mapping: Array[Int]): Int = {
    require(mapping.length == g1.n)
    val image = new Array[Int](g2.n)
    java.util.Arrays.fill(image, -1)
    var cost = 0
    var i = 0
    while (i < g1.n) {
      val j = mapping(i)
      if (j < 0) cost += 1 // vertex deletion
      else {
        require(image(j) < 0, s"mapping not injective at target $j")
        image(j) = i
        if (g1.vertexLabels(i) != g2.vertexLabels(j)) cost += 1 // relabel
      }
      i += 1
    }
    var j = 0
    while (j < g2.n) { if (image(j) < 0) cost += 1; j += 1 } // vertex insertions

    val a2 = edgeLookup(g2)
    g1.edges.foreach { e =>
      val ju = mapping(e.u)
      val jv = mapping(e.v)
      if (ju < 0 || jv < 0) cost += 1 // edge deleted with endpoint
      else a2.get(pairKey(ju, jv, g2.n)) match {
        case None        => cost += 1 // edge deletion
        case Some(label) => if (label != e.label) cost += 1 // edge relabel
      }
    }
    val a1 = edgeLookup(g1)
    g2.edges.foreach { e =>
      val iu = image(e.u)
      val iv = image(e.v)
      if (iu < 0 || iv < 0) cost += 1 // edge insertion with endpoint
      else if (!a1.contains(pairKey(iu, iv, g1.n))) cost += 1 // edge insertion
      // both present: already counted (0 or relabel) in the g1 loop
    }
    cost
  }

  /** Throws when `g1` and `g2` exceed [[MaxN]] vertices together. */
  private[baselines] def guard(g1: LabeledGraph, g2: LabeledGraph, method: String): Unit = {
    val n = g1.n + g2.n
    if (n > MaxN) throw GraphTooLargeException(n, MaxN, method)
  }

  private[baselines] def incidentLabels(g: LabeledGraph): Array[Array[String]] = {
    val inc = Array.fill(g.n)(List.empty[String])
    g.edges.foreach { e => inc(e.u) ::= e.label; inc(e.v) ::= e.label }
    inc.map(_.sorted.toArray)
  }

  private def pairKey(a: Int, b: Int, n: Int): Long =
    math.min(a, b).toLong * n + math.max(a, b)

  private def edgeLookup(g: LabeledGraph): Map[Long, String] =
    g.edges.map(e => pairKey(e.u, e.v, g.n) -> e.label).toMap
}
