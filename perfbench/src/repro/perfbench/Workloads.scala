package repro.perfbench

import repro.graphs.GraphGen
import repro.graphs.GraphGen.IamLikeConfig
import repro.graphs.LabeledGraph
import repro.harness.Datasets

/** One benchmark workload: the database and query graphs made from the seed,
  * plus how `fitModel` is called and how many closed-loop clients serve.
  */
final case class Workload(
    name: String,
    db: Vector[LabeledGraph],
    queries: Vector[LabeledGraph],
    nPairs: Int,
    extraVs: Seq[Long],
    clients: Int)

object Workloads {

  /** Threshold and acceptance probability used by every workload. */
  val TauHat = 10
  val Gamma = 0.8

  val Names: Seq[String] = Seq("aids-serve", "syn-large", "aids-concurrent")

  /** Distinct AIDS-like queries; clients cycle through them. */
  val AidsQueries = 100

  /** Build a workload. `scale` shrinks the database (|D| for the AIDS sets,
    * vertices per graph for syn-large) for quick smoke runs; 1.0 is the
    * benchmark's size.
    */
  def make(name: String, seed: Long, scale: Double, nproc: Int): Workload = name match {
    case "aids-serve"      => aids(name, seed, scale, clients = 1)
    case "aids-concurrent" => aids(name, seed, scale, clients = nproc)
    case "syn-large"       => synLarge(seed, scale)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other' (expected one of ${Names.mkString(", ")})")
  }

  // AIDS alphabet (|L_V|=10, |L_E|=3, avg degree 2.1) at the paper's AIDS
  // database size, with 4–60 vertices so Φ and Jeffreys see 57 distinct v.
  private def aids(name: String, seed: Long, scale: Double, clients: Int): Workload = {
    val nGraphs = math.max(20, math.round(1896 * scale).toInt)
    val cfg = IamLikeConfig(name, nGraphs, AidsQueries, 4, 60, 10, 3, 2.1, seed)
    val (db, queries) = GraphGen.iamLike(cfg)
    Workload(name, db, queries, nPairs = 2000,
      extraVs = queries.map(_.n.toLong).distinct, clients = clients)
  }

  // Appendix-F scale-free families: few, large graphs, so the branch column
  // (encoding, cache size, GBD kernel) dominates and Φ/Jeffreys see one v.
  private def synLarge(seed: Long, scale: Double): Workload = {
    val n = math.max(200, math.round(SynN * scale).toInt)
    val ds = GraphGen.synSubset(n, families = 5, d = 10, scaleFree = true, seed = seed)
    Workload("syn-large", ds.graphs, Datasets.synQueries(ds).toVector, nPairs = 500,
      extraVs = Nil, clients = 1)
  }

  /** Vertices per syn-large graph at scale 1. */
  val SynN = 2000
}
