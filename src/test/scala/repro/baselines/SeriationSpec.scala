package repro.baselines

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs.{edgeless, g1, g2, randomSmall}
import repro.graphs.{Edge, LabeledGraph}

class SeriationSpec extends AnyFunSuite {

  /** The seriation GED estimate of two graphs, from their strings. */
  private def estimate(a: LabeledGraph, b: LabeledGraph): Int =
    Seriation.estimateFromStrings(Seriation.seriationString(a), Seriation.seriationString(b), a.m, b.m)

  test("levenshtein basics") {
    import Seriation.levenshtein
    assert(levenshtein(Array("a", "b", "c"), Array("a", "b", "c")) == 0)
    assert(levenshtein(Array("a", "b", "c"), Array("a", "c")) == 1)
    assert(levenshtein(Array.empty[String], Array("x", "y")) == 2)
    assert(levenshtein(Array("a", "b"), Array("b", "a")) == 2)
    assert(levenshtein(Array("k", "i", "t", "t", "e", "n"),
      Array("s", "i", "t", "t", "i", "n", "g")) == 3)
  }

  test("levenshtein is symmetric") {
    val a = Array("a", "b", "c", "a")
    val b = Array("c", "a", "b")
    assert(Seriation.levenshtein(a, b) == Seriation.levenshtein(b, a))
  }

  test("leading eigenvector of a star graph peaks at the hub") {
    val star = LabeledGraph(1, Array("H", "A", "A", "A", "A"),
      Array(Edge(0, 1, "x"), Edge(0, 2, "x"), Edge(0, 3, "x"), Edge(0, 4, "x")))
    val ev = Seriation.leadingEigenvector(star)
    assert(ev(0) == ev.max)
    // leaves are symmetric
    for (i <- 2 to 4) assert(math.abs(ev(i) - ev(1)) < 1e-9)
  }

  test("leading eigenvector of K3 is uniform") {
    val k3 = LabeledGraph(1, Array("A", "B", "C"),
      Array(Edge(0, 1, "x"), Edge(0, 2, "x"), Edge(1, 2, "x")))
    val ev = Seriation.leadingEigenvector(k3)
    assert(math.abs(ev(0) - ev(1)) < 1e-9 && math.abs(ev(1) - ev(2)) < 1e-9)
    assert(math.abs(ev(0) - 1.0 / math.sqrt(3.0)) < 1e-9)
  }

  test("seriationString puts the hub first for a star graph") {
    val star = LabeledGraph(1, Array("H", "A", "A", "A"),
      Array(Edge(0, 1, "x"), Edge(0, 2, "x"), Edge(0, 3, "x")))
    assert(Seriation.seriationString(star).head == "H")
  }

  test("estimate on identical graphs is 0") {
    assert(estimate(g1, g1) == 0)
    assert(estimate(g2, g2) == 0)
  }

  test("estimate is non-negative and grows with dissimilarity") {
    val e12 = estimate(g1, g2)
    assert(e12 >= 1)
    val far = LabeledGraph(9, Array("Q", "Q", "Q", "Q", "Q"),
      Array(Edge(0, 1, "q"), Edge(1, 2, "q"), Edge(2, 3, "q"), Edge(3, 4, "q")))
    assert(estimate(g1, far) >= e12)
  }

  test("memory guard throws GraphTooLargeException") {
    val g = edgeless(1, Seriation.MaxN + 1)
    intercept[GraphTooLargeException](Seriation.adjacencyMatrix(g))
    intercept[GraphTooLargeException](estimate(g, g))
  }

  test("estimate handles edgeless graphs") {
    val a = LabeledGraph(1, Array("A", "B"), Array.empty[Edge])
    val b = LabeledGraph(2, Array("A", "C"), Array.empty[Edge])
    assert(estimate(a, b) == 1)
  }

  for (seed <- 1 to 8)
    test(s"estimate is finite and bounded by n1+n2+m1+m2 (seed=$seed)") {
      val a = randomSmall(seed + 20, 5 + seed % 3)
      val b = randomSmall(seed + 60, 5 + (seed + 1) % 3)
      val e = estimate(a, b)
      assert(e >= 0 && e <= a.n + b.n + a.m + b.m, s"e=$e")
    }
}
