package repro.graphs

/** An undirected edge between vertex indices `u < v` with a label. */
final case class Edge(u: Int, v: Int, label: String) extends Serializable {
  require(u < v, s"edge endpoints must satisfy u < v (simple graphs, no self-loops): ($u, $v)")
  require(label != null, s"edge ($u, $v): the label is null")
}

/** Simple labelled undirected graph (Section 2): vertices are indexed
  * 0..n−1 with labels from `L_V`; at most one labelled edge per pair.
  *
  * Branches (`Def. 2`) are materialized as sorted signature strings
  * `"L(v)|e1,e2,…"` where the incident edge labels are sorted ascending —
  * the "list of strings" storage the paper describes, flattened with
  * separators that are escaped inside labels (see [[LabeledGraph.branchSig]]).
  * Per Section 3 these accessory structures are considered pre-computed and
  * stored with the graph.
  */
final case class LabeledGraph(id: Long, vertexLabels: Array[String], edges: Array[Edge])
    extends Serializable {
  val n: Int = vertexLabels.length
  require(!vertexLabels.contains(null), s"graph $id: vertex ${vertexLabels.indexOf(null)} has a null label")
  edges.foreach(e =>
    require(e.u >= 0 && e.v < n, s"graph $id: edge (${e.u}, ${e.v}) outside 0 until $n"))
  require(edges.iterator.map(e => (e.u, e.v)).distinct.size == edges.length,
    s"graph $id: more than one edge between the same pair of vertices")
  def m: Int = edges.length
  def avgDegree: Double = if (n == 0) 0.0 else 2.0 * m / n

  def degrees: Array[Int] = {
    val d = new Array[Int](n)
    edges.foreach { e => d(e.u) += 1; d(e.v) += 1 }
    d
  }

  /** Sorted multiset of all branch signatures B_G (Def. 2). */
  lazy val branches: Array[String] =
    LabeledGraph.branchesOf(vertexLabels, edges)
}

object LabeledGraph {

  /** Build one branch signature from a vertex label and incident edge labels.
    * Injective for any label strings: `\`, `|` and `,` inside a label are
    * escaped with `\`, and the empty label is the token `\0`, so a degree-0
    * branch (`"A|"`) differs from one whose edge label is empty. A label
    * without these characters appears unchanged.
    */
  def branchSig(vertexLabel: String, incident: Seq[String]): String =
    escape(vertexLabel) + "|" + incident.map(escape).sorted.mkString(",")

  private def escape(label: String): String =
    if (label.isEmpty) "\\0" else label.replace("\\", "\\\\").replace("|", "\\|").replace(",", "\\,")

  /** All branch signatures, sorted ascending (the paper's ordered B_G). */
  def branchesOf(vertexLabels: Array[String], edges: Array[Edge]): Array[String] = {
    val n = vertexLabels.length
    val incident = Array.fill(n)(List.empty[String])
    edges.foreach { e =>
      incident(e.u) ::= e.label
      incident(e.v) ::= e.label
    }
    val sigs = Array.tabulate(n)(i => branchSig(vertexLabels(i), incident(i)))
    java.util.Arrays.sort(sigs.asInstanceOf[Array[AnyRef]])
    sigs
  }

  /** `(|L_V|, |L_E|)`: the distinct vertex and edge labels of a database,
    * each at least 1 (the alphabet sizes that enter D, Eq. 13).
    */
  def alphabetSizes(graphs: Seq[LabeledGraph]): (Int, Int) =
    (math.max(1, graphs.flatMap(_.vertexLabels).distinct.size),
      math.max(1, graphs.flatMap(_.edges.map(_.label)).distinct.size))
}
