package repro.ged

import org.scalacheck.{Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.TestGraphs.{adversarialGraph, g1, g2, randomSmall}
import repro.baselines.{BipartiteGed, GreedyGed}
import repro.graphs.{Edge, LabeledGraph}

class ExactGedSpec extends AnyFunSuite {

  test("Example 1: GED(G1, G2) = 3") {
    assert(ExactGed.compute(g1, g2) == 3)
    assert(ExactGed.reference(g1, g2) == 3)
  }

  test("GED is zero on identical graphs and symmetric") {
    assert(ExactGed.compute(g1, g1) == 0)
    assert(ExactGed.compute(g2, g2) == 0)
    assert(ExactGed.compute(g1, g2) == ExactGed.compute(g2, g1))
  }

  test("GED of isomorphic (relabel-permuted) graphs is zero") {
    // same graph with the vertex order permuted
    val perm = LabeledGraph(7L,
      Array("B", "A", "C"),
      Array(Edge(1, 2, "y"), Edge(0, 1, "y"), Edge(0, 2, "z")))
    assert(ExactGed.compute(g1, perm) == 0)
  }

  test("single-operation distances") {
    val base = LabeledGraph(1, Array("A", "B"), Array(Edge(0, 1, "x")))
    val rv = LabeledGraph(2, Array("A", "C"), Array(Edge(0, 1, "x")))
    val re = LabeledGraph(3, Array("A", "B"), Array(Edge(0, 1, "y")))
    val de = LabeledGraph(4, Array("A", "B"), Array.empty)
    val av = LabeledGraph(5, Array("A", "B", "Z"), Array(Edge(0, 1, "x")))
    assert(ExactGed.compute(base, rv) == 1)
    assert(ExactGed.compute(base, re) == 1)
    assert(ExactGed.compute(base, de) == 1)
    assert(ExactGed.compute(base, av) == 1)
  }

  test("empty vs non-empty: insert everything") {
    val empty = LabeledGraph(1, Array.empty[String], Array.empty[Edge])
    assert(ExactGed.compute(empty, g1) == g1.n + g1.m)
  }

  for (seed <- 1 to 20)
    test(s"branch-and-bound equals brute-force reference (seed=$seed)") {
      val a = randomSmall(seed, 3 + seed % 3)
      val b = randomSmall(seed + 1000, 3 + (seed + 1) % 3)
      assert(ExactGed.compute(a, b) == ExactGed.reference(a, b))
    }

  for (seed <- 1 to 8)
    test(s"triangle inequality on random triples (seed=$seed)") {
      val a = randomSmall(seed + 10, 4)
      val b = randomSmall(seed + 20, 5)
      val c = randomSmall(seed + 30, 4)
      val ab = ExactGed.compute(a, b)
      val bc = ExactGed.compute(b, c)
      val ac = ExactGed.compute(a, c)
      assert(ac <= ab + bc, s"ab=$ab bc=$bc ac=$ac")
    }

  for (k <- 1 to 4)
    test(s"relabelling $k edges with globally fresh labels gives GED exactly $k") {
      val g = randomSmall(777, 6, pEdge = 0.8)
      assert(g.m >= k)
      val edges = g.edges.clone()
      (0 until k).foreach(i => edges(i) = edges(i).copy(label = s"FRESH$i"))
      val h = g.copy(edges = edges)
      assert(ExactGed.compute(g, h) == k)
    }

  test("maxN guard rejects oversized inputs") {
    val big = randomSmall(9, 15)
    intercept[IllegalArgumentException](ExactGed.compute(big, big))
  }

  test("deleting an edge then inserting elsewhere costs 2") {
    val a = LabeledGraph(1, Array("A", "A", "A", "A"),
      Array(Edge(0, 1, "x"), Edge(1, 2, "x")))
    val b = LabeledGraph(2, Array("A", "A", "A", "A"),
      Array(Edge(0, 1, "x"), Edge(2, 3, "x")))
    // symmetric difference of structure: this is just moving one edge across
    // an automorphic vertex set, achievable in 2 ops (DE + AE); verify
    assert(ExactGed.compute(a, b) <= 2)
    assert(ExactGed.compute(a, b) >= 0)
    assert(ExactGed.compute(a, b) == ExactGed.reference(a, b))
  }

  test("different sizes: padding accounts for isolated-vertex insertions") {
    val small = LabeledGraph(1, Array("A"), Array.empty[Edge])
    val large = LabeledGraph(2, Array("A", "B", "C"), Array.empty[Edge])
    assert(ExactGed.compute(small, large) == 2)
  }

  // "\u0000" is a legal label and must not be taken for the padding ε.
  test("a vertex labelled U+0000 against the empty graph has GED 1") {
    val oneNul = LabeledGraph(1, Array("\u0000"), Array.empty[Edge])
    val empty = LabeledGraph(2, Array.empty[String], Array.empty[Edge])
    assert(ExactGed.compute(oneNul, empty) == 1)
    assert(ExactGed.reference(oneNul, empty) == 1)
  }

  test("an edge labelled U+0000 against the same vertices with no edge has GED 1") {
    val joined = LabeledGraph(1, Array("x", "x"), Array(Edge(0, 1, "\u0000")))
    val apart = LabeledGraph(2, Array("x", "x"), Array.empty[Edge])
    assert(ExactGed.compute(joined, apart) == 1)
    assert(ExactGed.reference(joined, apart) == 1)
  }

  test("adversarial labels: exact GED lies between the label and GBD bounds and the LSAP and Greedy estimates") {
    val pairs = for (a <- adversarialGraph(1, 0, 5); b <- adversarialGraph(2, 0, 5)) yield (a, b)
    val prop = Prop.forAllNoShrink(pairs) { case (a, b) =>
      val ged = ExactGed.compute(a, b)
      val gbd = TestGraphs.gbd(a, b)
      Prop.all(
        (ged == ExactGed.reference(a, b)) :| "branch-and-bound = brute force",
        (GedBounds.labelLowerBound(a, b) <= ged) :| "label bound <= GED",
        (math.abs(a.n - b.n) <= gbd && gbd <= 2 * ged) :| "|n1 - n2| <= GBD <= 2 GED",
        (gbd == TestGraphs.gbd(b, a)) :| "GBD(a, b) = GBD(b, a)",
        (TestGraphs.gbd(a, a) == 0) :| "GBD(a, a) = 0",
        (ged <= BipartiteGed.estimateHungarian(a, b)) :| "GED <= LSAP",
        (ged <= GreedyGed.estimate(a, b)) :| "GED <= Greedy-Sort-GED")
    }
    val result = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(17L)), prop)
    assert(result.passed, result.status)
  }
}
