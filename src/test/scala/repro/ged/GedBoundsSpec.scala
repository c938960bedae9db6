package repro.ged

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs.{g1, g2, randomSmall}
import repro.graphs.{Edge, LabeledGraph}

class GedBoundsSpec extends AnyFunSuite {

  test("lower bound on the running example is <= 3") {
    val lb = GedBounds.labelLowerBound(g1, g2)
    assert(lb <= 3 && lb >= 0, s"lb=$lb")
  }

  for (seed <- 1 to 20)
    test(s"labelLowerBound <= exact GED (seed=$seed)") {
      val a = randomSmall(seed + 500, 3 + seed % 4)
      val b = randomSmall(seed + 600, 3 + (seed + 2) % 4)
      val lb = GedBounds.labelLowerBound(a, b)
      val exact = ExactGed.compute(a, b)
      assert(lb <= exact, s"lb=$lb exact=$exact")
    }

  test("bound is tight for fresh-label edge relabellings (generator soundness)") {
    val g = randomSmall(123, 7, pEdge = 0.7)
    for (k <- 1 to math.min(4, g.m)) {
      val edges = g.edges.clone()
      (0 until k).foreach(i => edges(i) = edges(i).copy(label = s"UNIQ$i"))
      val h = g.copy(edges = edges)
      assert(GedBounds.labelLowerBound(g, h) == k)
      assert(ExactGed.compute(g, h) == k)
    }
  }

  test("bound counts both vertex and edge discrepancies") {
    val a = LabeledGraph(1, Array("A", "B"), Array(Edge(0, 1, "x")))
    val b = LabeledGraph(2, Array("A", "C"), Array(Edge(0, 1, "y")))
    assert(GedBounds.labelLowerBound(a, b) == 2)
    assert(ExactGed.compute(a, b) == 2)
    // the label multisets are compared whatever order the graph stores them in
    val c = LabeledGraph(3, Array("b", "a", "c"), Array(Edge(0, 1, "y"), Edge(1, 2, "x")))
    val d = LabeledGraph(4, Array("a", "b", "c"), Array(Edge(0, 1, "x"), Edge(1, 2, "y")))
    assert(GedBounds.labelLowerBound(c, d) == 0)
  }

  test("bound handles disjoint vertex alphabets (cross-family certification)") {
    val a = LabeledGraph(1, Array("F0:a", "F0:b", "F0:c"), Array.empty[Edge])
    val b = LabeledGraph(2, Array("F1:a", "F1:b", "F1:c"), Array.empty[Edge])
    assert(GedBounds.labelLowerBound(a, b) == 3)
  }
}
