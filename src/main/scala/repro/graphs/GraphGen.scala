package repro.graphs

import scala.collection.mutable
import scala.util.Random

/** Synthetic graph generators.
  *
  * Two producers, mirroring the paper's evaluation data (Section 7.1 and
  * Appendix F):
  *
  *  1. `iamLike` — IAM-style small labelled graphs (AIDS-lite / Finger-lite /
  *     GREC-lite): template clusters plus random perturbations plus
  *     singletons, small enough that [[repro.ged.ExactGed]] provides exact
  *     ground truth for every pair (the paper, too, could only verify on
  *     small graphs).
  *  2. `synSubset` — the Appendix-F construction: a connected template
  *     (scale-free Barabási–Albert or uniformly random) with a
  *     *modification center*; variant `j` relabels the center's first `j`
  *     incident edges with globally fresh labels, so
  *     `GED(variant_a, variant_b) = max(a,b)` exactly — the label-multiset
  *     lower bound (see [[repro.ged.GedBounds]]) meets the relabelling upper
  *     bound. Families use disjoint vertex alphabets, so cross-family GED
  *     is certifiably larger than any practical τ̂.
  */
object GraphGen {

  /** A graph set whose pairwise GEDs are known by construction.
    *
    * @param meta graph id → (family index, variant index)
    */
  final case class KnownGedDataset(graphs: Vector[LabeledGraph], meta: Map[Long, (Int, Int)]) {

    /** Exact GED if both graphs belong to the same family; None across
      * families (use `crossFamilyLowerBound` to certify separation).
      */
    def knownGed(id1: Long, id2: Long): Option[Int] = {
      val (f1, v1) = meta(id1)
      val (f2, v2) = meta(id2)
      if (f1 != f2) None
      else if (v1 == v2) Some(0)
      else Some(math.max(v1, v2))
    }

    /** Ground-truth decision `GED ≤ τ̂` for a pair — cross-family pairs are
      * negative (callers must certify separation once per dataset).
      */
    def isSimilar(id1: Long, id2: Long, tauHat: Int): Boolean =
      knownGed(id1, id2).exists(_ <= tauHat)
  }

  // ---------------------------------------------------------------- templates

  /** Connected random template.
    *
    * Every vertex i ≥ 1 first connects to an earlier vertex (spanning tree,
    * guaranteeing connectivity, as in Appendix F); then extra edges are
    * added either preferentially (scale-free, constant `extraPerVertex` per
    * vertex with attachment probability ∝ degree) or uniformly at random.
    */
  def template(
      id: Long,
      n: Int,
      extraPerVertex: Int,
      scaleFree: Boolean,
      vertexAlphabet: IndexedSeq[String],
      edgeAlphabet: IndexedSeq[String],
      rng: Random): LabeledGraph = {
    require(n >= 2, s"template needs ≥ 2 vertices, got $n")
    val labels = Array.fill(n)(vertexAlphabet(rng.nextInt(vertexAlphabet.size)))
    val present = mutable.HashSet.empty[Long]
    val edges = mutable.ArrayBuffer.empty[Edge]
    // Degree-proportional sampling via the standard repeated-endpoint pool:
    // every accepted edge appends both endpoints, so drawing uniformly from
    // the pool is preferential attachment in O(1) per draw.
    val pool = new mutable.ArrayBuffer[Int](2 * n * (extraPerVertex + 1))
    def key(a: Int, b: Int): Long = math.min(a, b).toLong * n + math.max(a, b)
    def addEdge(a: Int, b: Int): Boolean =
      if (a == b || present.contains(key(a, b))) false
      else {
        present += key(a, b)
        val (u, v) = if (a < b) (a, b) else (b, a)
        edges += Edge(u, v, edgeAlphabet(rng.nextInt(edgeAlphabet.size)))
        pool += a; pool += b
        true
      }

    def preferentialPick(limit: Int): Int =
      if (pool.isEmpty) rng.nextInt(limit) else pool(rng.nextInt(pool.size))

    var i = 1
    while (i < n) {
      // spanning link (guarantees connectivity, as in Appendix F)
      var first = if (scaleFree) preferentialPick(i) else rng.nextInt(i)
      var guard = 0
      while ((first >= i || !addEdge(i, first)) && guard < 50) {
        first = if (scaleFree) preferentialPick(i) else rng.nextInt(i)
        guard += 1
      }
      if (guard == 50) addEdge(i, i - 1) // degenerate fallback keeps it connected
      // extra links
      var added = 0
      var attempts = 0
      val want = math.min(extraPerVertex, i)
      while (added < want && attempts < 10 * (want + 1)) {
        val t = if (scaleFree) preferentialPick(i) else rng.nextInt(i)
        if (t < i && addEdge(i, t)) added += 1
        attempts += 1
      }
      i += 1
    }
    LabeledGraph(id, labels, edges.toArray)
  }

  // --------------------------------------------------- known-GED families (F)

  /** One Appendix-F family: the template plus `d` modified variants.
    *
    * The modification center is the maximum-degree vertex (a hub, so its
    * neighbourhood is large); variant `j` relabels the center's first `j`
    * incident edges to globally fresh labels `MOD:f<f>v<j>e<k>`.
    */
  def knownGedFamily(
      familyIdx: Int,
      tmpl: LabeledGraph,
      d: Int,
      baseId: Long): Vector[LabeledGraph] = {
    val deg = tmpl.degrees
    val center = deg.indices.maxBy(deg)
    require(deg(center) >= d,
      s"modification center degree ${deg(center)} < d=$d; increase template density")
    val centerEdgeIdx = tmpl.edges.zipWithIndex
      .collect { case (e, i) if e.u == center || e.v == center => i }
      .take(d)
    (0 to d).map { j =>
      val edges = tmpl.edges.clone()
      var k = 0
      while (k < j) {
        val ei = centerEdgeIdx(k)
        edges(ei) = edges(ei).copy(label = s"MOD:f${familyIdx}v${j}e$k")
        k += 1
      }
      LabeledGraph(baseId + j, tmpl.vertexLabels, edges)
    }.toVector
  }

  /** Syn subsets: extra edges per template vertex, the size of each
    * family's vertex alphabet and of the shared edge alphabet.
    */
  val SynExtraPerVertex = 3
  val SynVertexLabels = 10
  val SynEdgeLabels = 5

  /** One Syn subset: `families` Appendix-F families of graphs with `n`
    * vertices each; `d+1` variants per family. Family `f` draws vertex
    * labels from its private alphabet `F<f>:L0..L<SynVertexLabels-1>`,
    * making cross-family GED provably ≥ n via the label lower bound.
    */
  def synSubset(
      n: Int,
      families: Int,
      d: Int,
      scaleFree: Boolean,
      seed: Long): KnownGedDataset = {
    val rng = new Random(seed * 7919 + n)
    val edgeAlphabet = IndexedSeq.tabulate(SynEdgeLabels)(i => s"e$i")
    val graphs = Vector.newBuilder[LabeledGraph]
    val meta = Map.newBuilder[Long, (Int, Int)]
    var f = 0
    while (f < families) {
      val vAlphabet = IndexedSeq.tabulate(SynVertexLabels)(i => s"F$f:L$i")
      // Appendix F: "If there is no such a vertex, we re-generate the graph
      // until success" — here the center must have degree ≥ d.
      var tmpl = template(0L, n, SynExtraPerVertex, scaleFree, vAlphabet, edgeAlphabet, rng)
      var retries = 0
      while (tmpl.degrees.max < d && retries < 50) {
        tmpl = template(0L, n, SynExtraPerVertex, scaleFree, vAlphabet, edgeAlphabet, rng)
        retries += 1
      }
      val baseId = f.toLong * 1000
      val fam = knownGedFamily(f, tmpl, d, baseId)
      fam.foreach { g => graphs += g; meta += (g.id -> (f, (g.id - baseId).toInt)) }
      f += 1
    }
    KnownGedDataset(graphs.result(), meta.result())
  }

  // --------------------------------------------------------- IAM-like sets

  /** Configuration of an IAM-like small-graph dataset (see DESIGN.md §4). */
  final case class IamLikeConfig(
      name: String,
      nGraphs: Int,
      nQueries: Int,
      nMin: Int,
      nMax: Int,
      nVLabels: Int,
      nELabels: Int,
      avgDegree: Double,
      seed: Long)

  /** Database and query graphs for an IAM-like set: ~1/5 of the database are
    * cluster templates, each followed by perturbed copies (1–4 random edit
    * operations), so pairwise GEDs span the whole [0, τ̂] range; queries are
    * light perturbations of database graphs ("the query comes from the same
    * population", Section 5.2.1).
    */
  def iamLike(cfg: IamLikeConfig): (Vector[LabeledGraph], Vector[LabeledGraph]) = {
    val rng = new Random(cfg.seed)
    val vAlphabet = IndexedSeq.tabulate(cfg.nVLabels)(i => s"v$i")
    val eAlphabet = IndexedSeq.tabulate(cfg.nELabels)(i => s"e$i")
    val db = Vector.newBuilder[LabeledGraph]
    var id = 0L
    while (id < cfg.nGraphs) {
      val n = cfg.nMin + rng.nextInt(cfg.nMax - cfg.nMin + 1)
      val tmpl = randomGraph(id, n, cfg.avgDegree, vAlphabet, eAlphabet, rng)
      db += tmpl
      id += 1
      val copies = math.min(cfg.nGraphs - id, 1 + rng.nextInt(4)).toInt
      var c = 0
      while (c < copies) {
        db += perturb(tmpl, 1 + rng.nextInt(4), vAlphabet, eAlphabet, rng).copy(id = id)
        id += 1
        c += 1
      }
    }
    val database = db.result()
    val queries = Vector.tabulate(cfg.nQueries) { qi =>
      val base = database(rng.nextInt(database.size))
      perturb(base, rng.nextInt(3), vAlphabet, eAlphabet, rng).copy(id = 1000000L + qi)
    }
    (database, queries)
  }

  /** Random graph with a spanning tree plus uniform extra edges until the
    * target average degree is reached.
    */
  def randomGraph(
      id: Long,
      n: Int,
      avgDegree: Double,
      vAlphabet: IndexedSeq[String],
      eAlphabet: IndexedSeq[String],
      rng: Random): LabeledGraph = {
    val targetM = math.max(n - 1, math.round(avgDegree * n / 2).toInt)
    val g0 = template(id, n, 0, scaleFree = false, vAlphabet, eAlphabet, rng)
    val present = mutable.HashSet.empty[(Int, Int)]
    g0.edges.foreach(e => present += ((e.u, e.v)))
    val edges = mutable.ArrayBuffer.empty[Edge] ++ g0.edges
    val maxM = n * (n - 1) / 2
    var attempts = 0
    while (edges.size < math.min(targetM, maxM) && attempts < 50 * targetM) {
      val a = rng.nextInt(n)
      val b = rng.nextInt(n)
      if (a != b) {
        val k = (math.min(a, b), math.max(a, b))
        if (!present.contains(k)) {
          present += k
          edges += Edge(k._1, k._2, eAlphabet(rng.nextInt(eAlphabet.size)))
        }
      }
      attempts += 1
    }
    g0.copy(edges = edges.toArray)
  }

  /** Apply `ops` random graph edit operations (RV/RE/AE/DE mix). */
  def perturb(
      g: LabeledGraph,
      ops: Int,
      vAlphabet: IndexedSeq[String],
      eAlphabet: IndexedSeq[String],
      rng: Random): LabeledGraph = {
    val labels = g.vertexLabels.clone()
    val edges = mutable.ArrayBuffer.empty[Edge] ++ g.edges
    var o = 0
    while (o < ops) {
      rng.nextInt(4) match {
        case 0 => // RV
          labels(rng.nextInt(labels.length)) = vAlphabet(rng.nextInt(vAlphabet.size))
        case 1 if edges.nonEmpty => // RE
          val i = rng.nextInt(edges.size)
          edges(i) = edges(i).copy(label = eAlphabet(rng.nextInt(eAlphabet.size)))
        case 2 if edges.nonEmpty => // DE
          edges.remove(rng.nextInt(edges.size))
        case _ => // AE
          val a = rng.nextInt(labels.length)
          val b = rng.nextInt(labels.length)
          if (a != b) {
            val (u, v) = (math.min(a, b), math.max(a, b))
            if (!edges.exists(e => e.u == u && e.v == v))
              edges += Edge(u, v, eAlphabet(rng.nextInt(eAlphabet.size)))
          }
      }
      o += 1
    }
    LabeledGraph(g.id, labels, edges.toArray)
  }

  /** Least-squares power-law exponent of the degree distribution plus fit
    * quality — the Table-2 "Scale-free" column. A set is reported scale-free
    * when the pooled exponent δ of `count(k) ∝ k^−δ` lands in the paper's
    * (2,3)-ish band with a decent fit.
    */
  def degreeExponent(graphs: Seq[LabeledGraph]): (Double, Double) = {
    val counts = mutable.HashMap.empty[Int, Long]
    graphs.foreach(_.degrees.foreach(d => if (d >= 1) counts.update(d, counts.getOrElse(d, 0L) + 1)))
    val pts = counts.toSeq.filter(_._2 > 0).map { case (k, c) => (math.log(k.toDouble), math.log(c.toDouble)) }
    if (pts.size < 3) return (0.0, 0.0)
    val n = pts.size
    val mx = pts.map(_._1).sum / n
    val my = pts.map(_._2).sum / n
    val sxy = pts.map { case (x, y) => (x - mx) * (y - my) }.sum
    val sxx = pts.map { case (x, _) => (x - mx) * (x - mx) }.sum
    val syy = pts.map { case (_, y) => (y - my) * (y - my) }.sum
    val slope = sxy / sxx
    val r2 = if (syy == 0) 0.0 else sxy * sxy / (sxx * syy)
    (-slope, r2)
  }
}
