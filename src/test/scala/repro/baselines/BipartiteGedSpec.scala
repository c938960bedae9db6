package repro.baselines

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs.{edgeless, g1, g2, randomSmall}
import repro.ged.ExactGed
import repro.graphs.LabeledGraph

class BipartiteGedSpec extends AnyFunSuite {

  test("estimate on identical graphs is 0") {
    assert(BipartiteGed.estimateHungarian(g1, g1) == 0)
    assert(BipartiteGed.estimateHungarian(g2, g2) == 0)
    val empty = LabeledGraph(1L, Array.empty, Array.empty)
    assert(BipartiteGed.estimateHungarian(empty, empty) == 0)
  }

  test("estimate on the running example upper-bounds GED(G1,G2)=3") {
    val est = BipartiteGed.estimateHungarian(g1, g2)
    assert(est >= 3, s"est=$est") // LSAP is an upper bound
    assert(est <= 10, s"est=$est") // and not absurd
  }

  for (seed <- 1 to 20)
    test(s"LSAP estimate is a valid GED upper bound (seed=$seed)") {
      val a = randomSmall(seed + 40, 3 + seed % 4)
      val b = randomSmall(seed + 90, 3 + (seed + 1) % 4)
      val est = BipartiteGed.estimateHungarian(a, b)
      val exact = ExactGed.compute(a, b)
      assert(est >= exact, s"est=$est exact=$exact")
    }

  test("cost matrix has the Riesen–Bunke block structure") {
    val c = BipartiteGed.costMatrix(g1, g2)
    assert(c.length == g1.n + g2.n)
    // deletion block: only the diagonal is finite
    for (i <- 0 until g1.n; j <- 0 until g1.n if i != j)
      assert(c(i)(g2.n + j) > 1e12)
    for (i <- 0 until g1.n)
      assert(c(i)(g2.n + i) < 1e12)
    // ε→ε block is free
    for (i <- 0 until g2.n; j <- 0 until g1.n)
      assert(c(g1.n + i)(g2.n + j) == 0.0)
  }

  test("substitution cost is 0 for identically-labelled identical neighbourhoods") {
    val c = BipartiteGed.costMatrix(g1, g1)
    for (i <- 0 until g1.n) assert(c(i)(i) == 0.0)
  }

  test("inducedCost of the identity mapping on equal graphs is 0") {
    val mapping = Array.range(0, g1.n)
    assert(BipartiteGed.inducedCost(g1, g1, mapping) == 0)
  }

  test("inducedCost counts deletions, insertions and relabels") {
    // map everything to deletion: delete all vertices+edges, insert all of g2
    val mapping = Array.fill(g1.n)(-1)
    val cost = BipartiteGed.inducedCost(g1, g2, mapping)
    assert(cost == (g1.n + g1.m) + (g2.n + g2.m))
  }

  test("inducedCost rejects non-injective mappings") {
    intercept[IllegalArgumentException](
      BipartiteGed.inducedCost(g1, g2, Array(0, 0, 1)))
  }

  test("memory guard throws GraphTooLargeException") {
    val (a, b) = (edgeless(1, BipartiteGed.MaxN / 2 + 1), edgeless(2, BipartiteGed.MaxN / 2))
    intercept[GraphTooLargeException](BipartiteGed.estimateHungarian(a, b))
  }

  for (seed <- 1 to 10)
    test(s"estimate is symmetric within slack (seed=$seed)") {
      // The cost matrix is symmetric in construction; the induced cost of the
      // two directions may differ slightly, but both are upper bounds.
      val a = randomSmall(seed + 200, 4 + seed % 3)
      val b = randomSmall(seed + 300, 4 + (seed + 1) % 3)
      val exact = ExactGed.compute(a, b)
      assert(BipartiteGed.estimateHungarian(a, b) >= exact)
      assert(BipartiteGed.estimateHungarian(b, a) >= exact)
    }
}
