package repro

import org.scalacheck.Gen

import repro.core.GbdaOps
import repro.graphs.{Edge, LabeledGraph}

/** The running example of the paper (Figure 1), used as ground truth across
  * suites: GED(G1,G2)=3 (Example 1), branch multisets (Examples 2–3),
  * GBD(G1,G2)=3 (Example 3), Λ₁ values (Example 6).
  */
object TestGraphs {

  /** G1: v1(A), v2(C), v3(B); edges v1–v2:y, v1–v3:y, v2–v3:z. */
  val g1: LabeledGraph = LabeledGraph(1L,
    Array("A", "C", "B"),
    Array(Edge(0, 1, "y"), Edge(0, 2, "y"), Edge(1, 2, "z")))

  /** G2: u1(B), u2(A), u3(A), u4(C); edges u1–u3:x, u1–u4:z, u2–u4:y. */
  val g2: LabeledGraph = LabeledGraph(2L,
    Array("B", "A", "A", "C"),
    Array(Edge(0, 2, "x"), Edge(0, 3, "z"), Edge(1, 3, "y")))

  /** GBD(G₁,G₂) = max(|V₁|,|V₂|) − |B₁ ∩ B₂| (Def. 4). */
  def gbd(a: LabeledGraph, b: LabeledGraph): Int =
    GbdaOps.gbdFromSortedBranches(a.branches, b.branches)

  /** Decodes branch ids of the database `graphs` without the encoder's
    * dictionary: an id is the rank of its signature among the database's
    * distinct branches, sorted by `String.compareTo`.
    */
  def branchDecoder(graphs: Seq[LabeledGraph]): Seq[Int] => Seq[String] = {
    val sigs = graphs.flatMap(_.branches).distinct.sorted.toIndexedSeq
    ids => ids.map(sigs)
  }

  /** A graph of `n` vertices labelled `A` and no edges: cheap to build at
    * any size, so it trips the baselines' size guards before they allocate.
    */
  def edgeless(id: Long, n: Int): LabeledGraph = LabeledGraph(id, Array.fill(n)("A"), Array.empty[Edge])

  /** Deterministic random small graph for property-style loops. */
  def randomSmall(seed: Long, n: Int, nVL: Int = 3, nEL: Int = 3, pEdge: Double = 0.45): LabeledGraph = {
    val rng = new scala.util.Random(seed)
    val labels = Array.fill(n)(s"L${rng.nextInt(nVL)}")
    val edges = for {
      i <- 0 until n
      j <- i + 1 until n
      if rng.nextDouble() < pEdge
    } yield Edge(i, j, s"e${rng.nextInt(nEL)}")
    // offset ids so fixtures never collide with g1/g2 in mixed databases
    LabeledGraph(100000L + seed, labels, edges.toArray)
  }

  /** Labels a separator, an escape or a sentinel could confuse: the empty
    * label, NUL, the branch separators `|` and `,`, the escape `\`, the
    * empty label's escape token `\0`, and a character outside the BMP.
    */
  val adversarialLabels: Seq[String] = Seq("", "\u0000", "|", ",", "\\", "\\0", "\uD83D\uDE00")

  /** A graph of `minN` to `maxN` vertices with vertex and edge labels drawn
    * from [[adversarialLabels]]; each vertex pair is joined with probability
    * 1/2, so isolated vertices and empty edge sets occur.
    */
  def adversarialGraph(id: Long, minN: Int, maxN: Int): Gen[LabeledGraph] = {
    val label = Gen.oneOf(adversarialLabels)
    for {
      n <- Gen.choose(minN, maxN)
      vlabels <- Gen.listOfN(n, label)
      pairs = for (i <- 0 until n; j <- i + 1 until n) yield (i, j)
      elabels <- Gen.listOfN(pairs.size, Gen.oneOf(Gen.const(None), Gen.some(label)))
    } yield LabeledGraph(id, vlabels.toArray,
      pairs.zip(elabels).collect { case ((i, j), Some(l)) => Edge(i, j, l) }.toArray)
  }
}
