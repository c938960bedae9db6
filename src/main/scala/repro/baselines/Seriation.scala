package repro.baselines

import repro.graphs.LabeledGraph

/** Graph-seriation baseline (Robles-Kelly & Hancock [16], simplified).
  *
  * The original converts graphs to strings by ordering vertices along the
  * leading eigenvector of the adjacency matrix, then estimates edit distance
  * with a probabilistic string model. We keep the identical substrate —
  * dense adjacency matrix, power-iteration leading eigenvector, eigen-order
  * serialization — and score with plain Levenshtein over the vertex-label
  * string plus the edge-count difference (see DESIGN.md §4). The dense
  * O(n²) adjacency is what makes the method blow up on large graphs, which
  * is the scalability behaviour the evaluation exercises.
  */
object Seriation {

  /** Guard on the dense adjacency allocation (n² floats per graph). */
  val MaxN = 4096

  /** Power-iteration steps of [[leadingEigenvector]]. */
  val Iters = 60

  /** Dense 0/1 adjacency matrix (labels enter through the serialized string). */
  def adjacencyMatrix(g: LabeledGraph): Array[Array[Float]] = {
    if (g.n > MaxN) throw GraphTooLargeException(g.n, MaxN, "Seriation")
    val a = Array.ofDim[Float](g.n, g.n)
    g.edges.foreach { e => a(e.u)(e.v) = 1f; a(e.v)(e.u) = 1f }
    a
  }

  /** Leading eigenvector by power iteration over the dense adjacency.
    * Iterates on A + I: bipartite graphs have ±λ_max eigenpairs, on which
    * plain power iteration oscillates; the shift preserves the principal
    * eigenvector and guarantees convergence.
    */
  def leadingEigenvector(g: LabeledGraph): Array[Double] = {
    val a = adjacencyMatrix(g)
    val n = g.n
    var v = Array.fill(n)(1.0 / math.sqrt(n.toDouble))
    var it = 0
    while (it < Iters) {
      val w = new Array[Double](n)
      var i = 0
      while (i < n) {
        val row = a(i)
        var s = v(i) // the +I shift
        var j = 0
        while (j < n) { s += row(j) * v(j); j += 1 }
        w(i) = s
        i += 1
      }
      val norm = math.sqrt(w.map(x => x * x).sum)
      if (norm < 1e-12) return v // empty graph: keep the uniform vector
      i = 0
      while (i < n) { w(i) /= norm; i += 1 }
      v = w
      it += 1
    }
    v
  }

  /** Serialized vertex-label string in descending eigenvector order
    * (ties broken by degree, then label, for determinism).
    */
  def seriationString(g: LabeledGraph): Array[String] = {
    val ev = leadingEigenvector(g)
    val deg = g.degrees
    (0 until g.n)
      .sortBy(i => (-ev(i), -deg(i), g.vertexLabels(i)))
      .map(g.vertexLabels)
      .toArray
  }

  /** Seriation GED estimate from precomputed serialized strings. */
  def estimateFromStrings(s1: Array[String], s2: Array[String], m1: Int, m2: Int): Int =
    levenshtein(s1, s2) + math.abs(m1 - m2)

  /** Two-row Levenshtein over label sequences (unit costs). */
  def levenshtein(a: Array[String], b: Array[String]): Int = {
    val (s, t) = if (a.length <= b.length) (a, b) else (b, a)
    var prev = Array.tabulate(s.length + 1)(identity)
    var cur = new Array[Int](s.length + 1)
    var j = 1
    while (j <= t.length) {
      cur(0) = j
      var i = 1
      while (i <= s.length) {
        val sub = prev(i - 1) + (if (s(i - 1) == t(j - 1)) 0 else 1)
        cur(i) = math.min(math.min(prev(i) + 1, cur(i - 1) + 1), sub)
        i += 1
      }
      val tmp = prev; prev = cur; cur = tmp
      j += 1
    }
    prev(s.length)
  }
}
