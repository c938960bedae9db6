package repro.graphs

import org.scalatest.funsuite.AnyFunSuite

import repro.TestGraphs
import repro.TestGraphs.{g1, g2, randomSmall}

class LabeledGraphSpec extends AnyFunSuite {

  test("Example 2: branches of G1") {
    assert(g1.branches.toSeq == Seq("A|y,y", "B|y,z", "C|y,z"))
  }

  test("Example 3: branches of G2") {
    assert(g2.branches.toSeq == Seq("A|x", "A|y", "B|x,z", "C|y,z"))
  }

  test("Example 3: GBD(G1, G2) = 3") {
    assert(TestGraphs.gbd(g1, g2) == 3)
  }

  test("GBD is symmetric and zero on identical graphs") {
    assert(TestGraphs.gbd(g1, g1) == 0)
    assert(TestGraphs.gbd(g2, g2) == 0)
    assert(TestGraphs.gbd(g1, g2) == TestGraphs.gbd(g2, g1))
  }

  test("branch isomorphism (Def. 3) via signature equality") {
    import LabeledGraph.branchSig
    // the order of incident edges is irrelevant
    assert(branchSig("A", Seq("y", "x")) == branchSig("A", Seq("x", "y")))
    assert(branchSig("A", Seq("x")) != branchSig("B", Seq("x")))
    assert(branchSig("A", Seq("x", "x")) != branchSig("A", Seq("x"))) // incident labels form a multiset
  }

  test("branch signature sorts incident labels (canonical form)") {
    assert(LabeledGraph.branchSig("A", Seq("z", "x", "y")) == "A|x,y,z")
    assert(LabeledGraph.branchSig("A", Seq.empty) == "A|")
    assert(LabeledGraph.branchSig("F1:L2", Seq("e2", "e0")) == "F1:L2|e0,e2") // a generator's labels
  }

  test("GBD is exact for an edge label containing the separator ','") {
    // G1 = {A–B labelled "b,c"}, G2 = {A–B labelled b, A–C labelled c}: no
    // branch is shared, so Def. 4 gives max(2, 3) − 0 = 3.
    val a = LabeledGraph(1L, Array("A", "B"), Array(Edge(0, 1, "b,c")))
    val b = LabeledGraph(2L, Array("A", "B", "C"), Array(Edge(0, 1, "b"), Edge(0, 2, "c")))
    assert(a.branches.intersect(b.branches).isEmpty, (a.branches.toSeq, b.branches.toSeq))
    assert(TestGraphs.gbd(a, b) == 3)
    // a label ending in the escape character, next to another label
    assert(LabeledGraph.branchSig("A", Seq("a\\", "b")) != LabeledGraph.branchSig("A", Seq("a,b")))
    assert(LabeledGraph.branchSig("A|b", Seq.empty) != LabeledGraph.branchSig("A", Seq("b")))
  }

  test("GBD is exact for an empty edge label") {
    // An edge labelled "" still changes both endpoint branches.
    val withEdge = LabeledGraph(1L, Array("A", "B"), Array(Edge(0, 1, "")))
    val without = LabeledGraph(2L, Array("A", "B"), Array.empty)
    assert(TestGraphs.gbd(withEdge, without) == 2)
    assert(LabeledGraph.branchSig("A", Seq("")) != LabeledGraph.branchSig("A", Seq.empty))
    assert(LabeledGraph.branchSig("A", Seq("", "")) != LabeledGraph.branchSig("A", Seq(",")))
  }

  test("degrees and average degree") {
    assert(g1.degrees.toSeq == Seq(2, 2, 2))
    assert(g2.degrees.toSeq == Seq(2, 1, 1, 2))
    assert(math.abs(g1.avgDegree - 2.0) < 1e-12)
    assert(math.abs(g2.avgDegree - 1.5) < 1e-12)
  }

  test("self-loops are rejected") {
    intercept[IllegalArgumentException](Edge(3, 3, "x"))
  }

  test("edges oriented u > v are rejected") {
    intercept[IllegalArgumentException](Edge(2, 1, "x"))
  }

  test("edge endpoints outside 0 until n are rejected") {
    intercept[IllegalArgumentException](LabeledGraph(1L, Array("A", "B"), Array(Edge(0, 2, "x"))))
    intercept[IllegalArgumentException](LabeledGraph(1L, Array("A", "B"), Array(Edge(-1, 1, "x"))))
  }

  test("null vertex and edge labels are rejected at construction, naming the graph or edge") {
    val v = intercept[IllegalArgumentException](LabeledGraph(1L, Array("A", null), Array.empty))
    assert(v.getMessage.contains("graph 1") && v.getMessage.contains("vertex 1"), v.getMessage)
    val e = intercept[IllegalArgumentException](Edge(0, 1, null))
    assert(e.getMessage.contains("(0, 1)"), e.getMessage)
  }

  test("two edges between the same pair of vertices are rejected") {
    intercept[IllegalArgumentException](
      LabeledGraph(1L, Array("A", "B", "C"), Array(Edge(0, 1, "x"), Edge(1, 2, "x"), Edge(0, 1, "y"))))
  }

  for (seed <- 1 to 10)
    test(s"GBD upper-bounded by max(|V1|,|V2|) and symmetric (seed=$seed)") {
      val a = randomSmall(seed, 4 + seed % 4)
      val b = randomSmall(seed + 100, 4 + (seed + 1) % 4)
      val d = TestGraphs.gbd(a, b)
      assert(d >= 0 && d <= math.max(a.n, b.n))
      assert(d == TestGraphs.gbd(b, a))
    }

  for (seed <- 1 to 10)
    test(s"GBD(g,g)=0 and adding one fresh-labelled edge changes GBD by <= 2 (seed=$seed)") {
      val g = randomSmall(seed + 50, 6)
      assert(TestGraphs.gbd(g, g) == 0)
      val nonEdges = for {
        i <- 0 until g.n; j <- i + 1 until g.n
        if !g.edges.exists(e => e.u == i && e.v == j)
      } yield (i, j)
      if (nonEdges.nonEmpty) {
        val (i, j) = nonEdges.head
        val g3 = g.copy(edges = g.edges :+ Edge(i, j, "FRESH"))
        val d = TestGraphs.gbd(g, g3)
        assert(d >= 1 && d <= 2, s"d=$d") // one AE touches at most two branches
      }
    }

  test("branchesOf on an edgeless graph is the sorted label list") {
    val g = LabeledGraph(9L, Array("C", "A", "B"), Array.empty)
    assert(g.branches.toSeq == Seq("A|", "B|", "C|"))
  }
}
