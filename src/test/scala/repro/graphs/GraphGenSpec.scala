package repro.graphs

import org.scalatest.funsuite.AnyFunSuite

import repro.ged.{ExactGed, GedBounds}

import scala.util.Random

class GraphGenSpec extends AnyFunSuite {

  private def isConnected(g: LabeledGraph): Boolean = {
    if (g.n == 0) return true
    val neighbours = Array.fill(g.n)(List.empty[Int])
    g.edges.foreach { e => neighbours(e.u) ::= e.v; neighbours(e.v) ::= e.u }
    val seen = new Array[Boolean](g.n)
    var stack = List(0)
    seen(0) = true
    var count = 1
    while (stack.nonEmpty) {
      val v = stack.head; stack = stack.tail
      neighbours(v).foreach { u =>
        if (!seen(u)) { seen(u) = true; count += 1; stack ::= u }
      }
    }
    count == g.n
  }

  private def isSimple(g: LabeledGraph): Boolean = {
    val keys = g.edges.map(e => (math.min(e.u, e.v), math.max(e.u, e.v)))
    keys.distinct.length == keys.length && g.edges.forall(e => e.u != e.v)
  }

  private val vAlpha = IndexedSeq("A", "B", "C", "D")
  private val eAlpha = IndexedSeq("x", "y", "z")

  for (n <- Seq(5, 20, 100); sf <- Seq(true, false))
    test(s"template is connected and simple (n=$n, scaleFree=$sf)") {
      val g = GraphGen.template(1L, n, 2, sf, vAlpha, eAlpha, new Random(n + (if (sf) 0 else 1)))
      assert(g.n == n)
      assert(isConnected(g), "not connected")
      assert(isSimple(g), "not simple")
      assert(g.vertexLabels.forall(vAlpha.contains))
      assert(g.edges.forall(e => eAlpha.contains(e.label)))
    }

  test("template edge budget grows with extraPerVertex") {
    val sparse = GraphGen.template(1L, 200, 0, scaleFree = false, vAlpha, eAlpha, new Random(4))
    val dense = GraphGen.template(1L, 200, 4, scaleFree = false, vAlpha, eAlpha, new Random(4))
    assert(sparse.m == 199) // exactly the spanning tree
    assert(dense.m > sparse.m * 2)
  }

  test("scale-free templates have hubs (max degree well above random)") {
    val rng = new Random(9)
    val sf = GraphGen.template(1L, 2000, 3, scaleFree = true, vAlpha, eAlpha, rng)
    val rnd = GraphGen.template(2L, 2000, 3, scaleFree = false, vAlpha, eAlpha, rng)
    assert(sf.degrees.max > rnd.degrees.max, s"sf=${sf.degrees.max} rnd=${rnd.degrees.max}")
  }

  test("degreeExponent detects the scale-free set, with a sane fit") {
    val rng = new Random(10)
    val sfGraphs = Seq.tabulate(5)(i =>
      GraphGen.template(i.toLong, 3000, 3, scaleFree = true, vAlpha, eAlpha, rng))
    val (delta, r2) = GraphGen.degreeExponent(sfGraphs)
    assert(delta > 1.2 && delta < 4.5, s"delta=$delta")
    assert(r2 > 0.6, s"r2=$r2")
  }

  // ------------------------------------------------------- known-GED families

  test("knownGedFamily variants: exact GED equals max(i,j) on a small instance") {
    val rng = new Random(21)
    val tmpl = GraphGen.template(0L, 8, 2, scaleFree = false, vAlpha, eAlpha, rng)
    assume(tmpl.degrees.max >= 3)
    val fam = GraphGen.knownGedFamily(0, tmpl, d = 3, baseId = 0L)
    assert(fam.size == 4)
    for (i <- fam.indices; j <- fam.indices) {
      val expected = if (i == j) 0 else math.max(i, j)
      val got = ExactGed.compute(fam(i), fam(j))
      assert(got == expected, s"i=$i j=$j got=$got expected=$expected")
    }
  }

  test("knownGedFamily label bound certifies the distances on a large instance") {
    val rng = new Random(22)
    val tmpl = GraphGen.template(0L, 300, 3, scaleFree = true, vAlpha, eAlpha, rng)
    val fam = GraphGen.knownGedFamily(0, tmpl, d = 8, baseId = 0L)
    for (i <- fam.indices; j <- i + 1 until fam.size) {
      val lb = GedBounds.labelLowerBound(fam(i), fam(j))
      assert(lb == math.max(i, j), s"i=$i j=$j lb=$lb")
    }
  }

  test("synSubset: metadata, sizes, and knownGed matrix") {
    val ds = GraphGen.synSubset(n = 60, families = 3, d = 5, scaleFree = true, seed = 3)
    assert(ds.graphs.size == 3 * 6)
    assert(ds.graphs.forall(_.n == 60))
    assert(ds.graphs.map(_.id).distinct.size == ds.graphs.size)
    val fam0 = ds.graphs.filter(g => ds.meta(g.id)._1 == 0)
    for (a <- fam0; b <- fam0) {
      val expected = if (a.id == b.id) Some(0)
      else Some(math.max(ds.meta(a.id)._2, ds.meta(b.id)._2))
      assert(ds.knownGed(a.id, b.id) == expected)
    }
    val crossPair = (ds.graphs.find(g => ds.meta(g.id)._1 == 0).get,
      ds.graphs.find(g => ds.meta(g.id)._1 == 1).get)
    assert(ds.knownGed(crossPair._1.id, crossPair._2.id).isEmpty)
  }

  test("synSubset cross-family label lower bound exceeds n/2 (disjoint alphabets)") {
    val ds = GraphGen.synSubset(n = 50, families = 3, d = 5, scaleFree = false, seed = 5)
    val reps = (0 until 3).map(f => ds.graphs.find(g => ds.meta(g.id)._1 == f).get)
    for (i <- 0 until 3; j <- i + 1 until 3) {
      val lb = GedBounds.labelLowerBound(reps(i), reps(j))
      assert(lb >= 50, s"lb=$lb") // all vertex labels differ across families
    }
  }

  test("synSubset isSimilar matches knownGed thresholds") {
    val ds = GraphGen.synSubset(n = 40, families = 2, d = 6, scaleFree = true, seed = 6)
    val f0 = ds.graphs.filter(g => ds.meta(g.id)._1 == 0).sortBy(g => ds.meta(g.id)._2)
    assert(ds.isSimilar(f0(0).id, f0(3).id, tauHat = 3))
    assert(!ds.isSimilar(f0(0).id, f0(4).id, tauHat = 3))
    val g1 = ds.graphs.find(g => ds.meta(g.id)._1 == 1).get
    assert(!ds.isSimilar(f0(0).id, g1.id, tauHat = 3))
  }

  // ------------------------------------------------------------- IAM-like

  test("iamLike respects the configuration envelope") {
    val cfg = GraphGen.IamLikeConfig("t", 60, 7, 4, 8, 5, 3, 2.0, seed = 77)
    val (db, qs) = GraphGen.iamLike(cfg)
    assert(db.size == 60)
    assert(qs.size == 7)
    assert(db.forall(g => g.n >= 4 && g.n <= 8))
    assert(db.map(_.id).distinct.size == db.size)
    assert(qs.map(_.id).distinct.size == qs.size)
    db.foreach(g => assert(isSimple(g)))
    qs.foreach(g => assert(isSimple(g)))
    val labels = db.flatMap(_.vertexLabels).toSet
    assert(labels.subsetOf((0 until 5).map(i => s"v$i").toSet))
  }

  test("iamLike databases contain near-duplicate clusters (small pairwise GEDs exist)") {
    val cfg = GraphGen.IamLikeConfig("t2", 40, 4, 4, 7, 5, 3, 2.0, seed = 78)
    val (db, _) = GraphGen.iamLike(cfg)
    val geds = for (i <- 0 until 10; j <- i + 1 until 10)
      yield ExactGed.compute(db(i), db(j))
    assert(geds.exists(_ <= 4), s"min=${geds.min}") // clusters => some close pairs
    assert(geds.exists(_ >= 3), s"max=${geds.max}") // and some far ones
  }

  test("perturb keeps graphs simple and the vertex count fixed") {
    val rng = new Random(31)
    val g = GraphGen.randomGraph(1L, 7, 2.0, vAlpha, eAlpha, rng)
    (1 to 20).foreach { i =>
      val h = GraphGen.perturb(g, i % 5, vAlpha, eAlpha, rng)
      assert(h.n == g.n)
      assert(isSimple(h))
    }
  }

  test("randomGraph hits the requested average degree approximately") {
    val rng = new Random(32)
    val gs = Seq.tabulate(30)(i => GraphGen.randomGraph(i.toLong, 20, 3.0, vAlpha, eAlpha, rng))
    val avg = gs.map(_.avgDegree).sum / gs.size
    assert(math.abs(avg - 3.0) < 0.5, s"avg=$avg")
  }

  test("generation is deterministic in the seed") {
    val a = GraphGen.synSubset(30, 2, 4, scaleFree = true, seed = 9)
    val b = GraphGen.synSubset(30, 2, 4, scaleFree = true, seed = 9)
    assert(a.graphs.map(_.branches.toSeq) == b.graphs.map(_.branches.toSeq))
  }
}
