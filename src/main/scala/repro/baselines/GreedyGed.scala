package repro.baselines

import repro.graphs.LabeledGraph

/** Greedy-Sort-GED baseline [15]: same Riesen–Bunke cost matrix as the LSAP
  * method, but the assignment is built greedily from the globally sorted
  * entry list — O(n² log n²) instead of O(n³) — then scored by the induced
  * edit-path cost. The greedy assignment cost is ≥ the Hungarian optimum.
  */
object GreedyGed {

  def estimate(g1: LabeledGraph, g2: LabeledGraph): Int = {
    BipartiteGed.guard(g1, g2, "Greedy-Sort-GED")
    val cost = BipartiteGed.costMatrix(g1, g2)
    val assign = greedyAssignment(cost)
    BipartiteGed.inducedCost(g1, g2, BipartiteGed.mappingFromAssignment(g1.n, g2.n, assign))
  }

  /** Globally sorted greedy assignment on a square cost matrix. */
  def greedyAssignment(cost: Array[Array[Double]]): Array[Int] = {
    val n = cost.length
    // flatten (cost, i, j) and sort ascending by cost
    val flat = new Array[(Double, Int, Int)](n * n)
    var idx = 0
    var i = 0
    while (i < n) {
      var j = 0
      while (j < n) { flat(idx) = (cost(i)(j), i, j); idx += 1; j += 1 }
      i += 1
    }
    scala.util.Sorting.stableSort(flat, (a: (Double, Int, Int), b: (Double, Int, Int)) => a._1 < b._1)
    val rowDone = new Array[Boolean](n)
    val colDone = new Array[Boolean](n)
    val assign = Array.fill(n)(-1)
    var k = 0
    var assigned = 0
    while (k < flat.length && assigned < n) {
      val (_, r, c) = flat(k)
      if (!rowDone(r) && !colDone(c)) {
        assign(r) = c
        rowDone(r) = true
        colDone(c) = true
        assigned += 1
      }
      k += 1
    }
    assign
  }
}
