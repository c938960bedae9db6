package repro.perfbench

import repro.core.{Gbda, GbdaModel}
import repro.graphs.LabeledGraph

/** Expected answers, computed once outside the timed region.
  *
  * GBD (Def. 4) comes from the benchmark's own branch multisets, built from
  * the raw vertex labels and edges as (vertex label, sorted incident edge
  * labels) pairs — deliberately not `LabeledGraph.branches` or `GbdaOps`, so
  * a defect in the program's branch encoding or kernel shows as a mismatch.
  * Φ comes from `Gbda.phi` on a copy of the served model (same fitted values,
  * its own memo, so computing the reference does not warm the served model).
  */
object Reference {

  type Branch = (String, Vector[String])

  /** Branch multiset of `g` as counts (Def. 2). */
  def branchCounts(g: LabeledGraph): Map[Branch, Int] = {
    val incident = Array.fill(g.n)(Vector.empty[String])
    g.edges.foreach { e =>
      incident(e.u) :+= e.label
      incident(e.v) :+= e.label
    }
    g.vertexLabels.indices
      .map(i => (g.vertexLabels(i), incident(i).sorted))
      .groupMapReduce(identity)(_ => 1)(_ + _)
  }

  /** GBD = max(|B₁|, |B₂|) − |B₁ ∩ B₂| (Def. 4), multiset intersection. */
  def gbd(a: Map[Branch, Int], na: Int, b: Map[Branch, Int], nb: Int): Int = {
    val (small, large) = if (a.size <= b.size) (a, b) else (b, a)
    val inter = small.iterator.map { case (k, c) => math.min(c, large.getOrElse(k, 0)) }.sum
    math.max(na, nb) - inter
  }

  /** Per query: the set of `(gid, gbd)` with Φ ≥ γ. */
  def answers(w: Workload, model: GbdaModel): Vector[Set[(Long, Int)]] = {
    val ref = model.copy()
    val db = w.db.map(g => (g.id, g.n, branchCounts(g)))
    def expected(q: LabeledGraph): Set[(Long, Int)] = {
      val qb = branchCounts(q)
      db.flatMap { case (id, n, b) =>
        val d = gbd(qb, q.n, b, n)
        if (Gbda.phi(d, math.max(n, q.n).toLong, ref) >= Workloads.Gamma) Some((id, d)) else None
      }.toSet
    }
    java.util.stream.IntStream.range(0, w.queries.size).parallel()
      .mapToObj[Set[(Long, Int)]](i => expected(w.queries(i)))
      .toArray.toVector.asInstanceOf[Vector[Set[(Long, Int)]]]
  }
}
