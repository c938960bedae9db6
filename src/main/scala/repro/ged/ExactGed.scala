package repro.ged

import repro.graphs.LabeledGraph

/** Exact unit-cost Graph Edit Distance for small graphs.
  *
  * Uses the extended-graph equivalence the paper leans on (Theorem 1,
  * Justice–Hero / Serratosa): pad the smaller graph with ε-vertices to
  * `n = max(|V₁|,|V₂|)` and treat missing edges as ε-labelled; then
  * `GED(G₁,G₂) = min over bijections π of
  *   Σ_i [L₁(i) ≠ L₂(π(i))] + Σ_{i<j} [A₁(i,j) ≠ A₂(π(i),π(j))]`
  * because every minimal edit sequence on the extended pair consists only of
  * relabellings (Section 4). The search is branch-and-bound over bijections
  * with a vertex-label-multiset admissible heuristic; exact but exponential,
  * so guarded by [[MaxN]] (the paper's A* is likewise limited to ~12 vertices).
  */
object ExactGed {

  /** ε, the label of a padded vertex and of a non-edge. Real labels are
    * mapped to ints ≥ 0 per call (`padded`), so no label string is ε.
    */
  private val Eps = -1

  /** Largest graph [[compute]] accepts. */
  val MaxN = 12

  /** Largest graph [[reference]] accepts: it enumerates all n! bijections. */
  val ReferenceMaxN = 7

  /** Exhaustive reference (no pruning beyond bound) — for cross-checks. */
  def reference(g1: LabeledGraph, g2: LabeledGraph): Int = {
    val n = math.max(g1.n, g2.n)
    require(n <= ReferenceMaxN, s"reference GED limited to $ReferenceMaxN vertices, got $n")
    val ((l1, a1), (l2, a2)) = padded(g1, g2, n)
    val perm = Array.range(0, n)
    var best = Int.MaxValue
    def permute(k: Int): Unit = {
      if (k == n) best = math.min(best, fullCost(l1, a1, l2, a2, perm))
      else {
        var i = k
        while (i < n) {
          val t = perm(k); perm(k) = perm(i); perm(i) = t
          permute(k + 1)
          val t2 = perm(k); perm(k) = perm(i); perm(i) = t2
          i += 1
        }
      }
    }
    permute(0)
    best
  }

  /** Exact GED by branch-and-bound; feasible up to [[MaxN]] vertices. */
  def compute(g1: LabeledGraph, g2: LabeledGraph): Int = {
    val n = math.max(g1.n, g2.n)
    require(n <= MaxN, s"exact GED limited to $MaxN vertices, got $n " +
      "(the paper reports A* fails beyond ~12 vertices as well)")
    if (n == 0) return 0
    val ((l1, a1), (l2, a2)) = padded(g1, g2, n)

    // Process G1 vertices in descending-degree order: edge costs appear early.
    val deg1 = Array.tabulate(n)(i => a1(i).count(_ != Eps))
    val order = Array.range(0, n).sortBy(i => -deg1(i))

    // Initial upper bound: identity plus a label-greedy matching.
    var best = fullCost(l1, a1, l2, a2, Array.range(0, n))
    best = math.min(best, fullCost(l1, a1, l2, a2, greedyByLabel(l1, l2)))

    val assign = Array.fill(n)(-1) // position k (vertex order(k)) -> target j
    val used = new Array[Boolean](n)

    def heuristic(k: Int): Int = {
      // Label-multiset distance between the unassigned tails — admissible:
      // each remaining vertex contributes ≥1 whenever its label cannot be
      // matched among the unused targets.
      val remaining = new scala.collection.mutable.HashMap[Int, Int]()
      var kk = k
      while (kk < n) { val l = l1(order(kk)); remaining.update(l, remaining.getOrElse(l, 0) + 1); kk += 1 }
      var unmatched = n - k
      var j = 0
      while (j < n) {
        if (!used(j)) {
          val l = l2(j)
          val c = remaining.getOrElse(l, 0)
          if (c > 0) { remaining.update(l, c - 1); unmatched -= 1 }
        }
        j += 1
      }
      unmatched
    }

    def dfs(k: Int, cost: Int): Unit = {
      if (cost >= best) return
      if (k == n) { best = cost; return }
      if (cost + heuristic(k) >= best) return
      val u = order(k)
      var j = 0
      while (j < n) {
        if (!used(j)) {
          var c = cost + (if (l1(u) == l2(j)) 0 else 1)
          var kk = 0
          while (kk < k && c < best) {
            val u2 = order(kk)
            if (a1(u)(u2) != a2(j)(assign(kk))) c += 1
            kk += 1
          }
          if (c < best) {
            used(j) = true; assign(k) = j
            dfs(k + 1, c)
            used(j) = false; assign(k) = -1
          }
        }
        j += 1
      }
    }

    dfs(0, 0)
    best
  }

  /** Both graphs as padded vertex labels and a dense ε-filled adjacency
    * label matrix on `n` vertices, every label mapped to an int ≥ 0 by one
    * dictionary shared by the pair.
    */
  private def padded(g1: LabeledGraph, g2: LabeledGraph, n: Int)
      : ((Array[Int], Array[Array[Int]]), (Array[Int], Array[Array[Int]])) = {
    val ids = scala.collection.mutable.HashMap.empty[String, Int]
    def id(label: String): Int = ids.getOrElseUpdate(label, ids.size)
    def one(g: LabeledGraph) = {
      val labels = Array.tabulate(n)(i => if (i < g.n) id(g.vertexLabels(i)) else Eps)
      val a = Array.fill(n, n)(Eps)
      g.edges.foreach { e => val l = id(e.label); a(e.u)(e.v) = l; a(e.v)(e.u) = l }
      (labels, a)
    }
    (one(g1), one(g2))
  }

  private def fullCost(
      l1: Array[Int], a1: Array[Array[Int]],
      l2: Array[Int], a2: Array[Array[Int]],
      perm: Array[Int]): Int = {
    val n = l1.length
    var c = 0
    var i = 0
    while (i < n) {
      if (l1(i) != l2(perm(i))) c += 1
      var j = i + 1
      while (j < n) {
        if (a1(i)(j) != a2(perm(i))(perm(j))) c += 1
        j += 1
      }
      i += 1
    }
    c
  }

  private def greedyByLabel(l1: Array[Int], l2: Array[Int]): Array[Int] = {
    val n = l1.length
    val perm = Array.fill(n)(-1)
    val used = new Array[Boolean](n)
    var i = 0
    while (i < n) {
      var j = 0
      var found = -1
      while (j < n && found < 0) {
        if (!used(j) && l1(i) == l2(j)) found = j
        j += 1
      }
      if (found >= 0) { perm(i) = found; used(found) = true }
      i += 1
    }
    i = 0
    var free = 0
    while (i < n) {
      if (perm(i) < 0) {
        while (used(free)) free += 1
        perm(i) = free; used(free) = true
      }
      i += 1
    }
    perm
  }
}
