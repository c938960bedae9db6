package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.GbdaModel
import repro.spark.{GbdaSearch, GraphFrames}

/** Benchmark of the served GBDA path (`GbdaSearch.fitModel` offline,
  * `GbdaSearch.search(...).collect()` online).
  *
  * {{{
  * Main --workload <aids-serve|syn-large|aids-concurrent> --seed <n>
  *      --seconds <s> --trace <0|1> [--scale <fraction>]
  * }}}
  *
  * `--trace 0` measures the end-to-end metrics with no listener attached;
  * `--trace 1` is a separate run that reports the per-layer split. The last
  * line of standard output is one JSON object with `correct`, `attempted`,
  * `failed` and `metrics`.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, scale: Double)

  final case class Metric(name: String, value: Double, unit: String)

  final case class Outcome(attempted: Int, failed: Int, metrics: Seq[Metric], printedOnly: Seq[Metric])

  /** Set-up repetitions per run: `setup_s` is their median, `fit_s` the
    * median of the `fitModel` calls after the first (cold) one.
    */
  val SetupReps = 3

  /** Untimed queries sent by `nproc` clients on the served model before the
    * timed phase: they fill its Φ memo and let the JIT compile the query
    * path. The warm-up lasts at least its seconds and its queries.
    */
  val WarmSeconds = 4.0
  val WarmQueries = 16

  private val started = System.nanoTime

  /** Progress line on standard error, with seconds since start. */
  def log(msg: String): Unit = Console.err.println(f"perfbench: +${(System.nanoTime - started) / 1e9}%.1fs $msg")

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val nproc = Runtime.getRuntime.availableProcessors
    val w = Workloads.make(args.workload, args.seed, args.scale, nproc)
    log(s"generated ${w.db.size} graphs and ${w.queries.size} queries")
    val spark = SparkSession.builder()
      .master(s"local[$nproc]")
      .appName(s"perfbench-${w.name}")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    log("spark session started")
    val out =
      try {
        printProvenance(spark, w, args, nproc)
        if (args.trace) Traced.run(spark, w, args) else untraced(spark, w, args)
      } finally spark.stop()
    (out.metrics ++ out.printedOnly).foreach(m => println(f"metric ${m.name}%-36s ${fmt(m.value)}%s ${m.unit}"))
    val metricsJson = out.metrics
      .map(m => s""""${m.name}": {"value": ${fmt(m.value)}, "unit": "${m.unit}"}""")
      .mkString("{", ", ", "}")
    val correct = out.failed == 0 && out.attempted > 0
    println(s"""{"correct": $correct, "attempted": ${out.attempted}, "failed": ${out.failed}, "metrics": $metricsJson}""")
  }

  // ------------------------------------------------------------ end to end

  private def untraced(spark: SparkSession, w: Workload, args: Args): Outcome = {
    val p = prepare(spark, w, SetupReps)
    val s = p.setups.last
    val cacheMb = cachedMb(spark)
    val timed = Serve.run(s.df, s.model, w, p.expected, "q", args.seconds, Serve.MinTimedQueries)
    val lat = timed.latenciesMs
    log("timed ms, median by tenth: " +
      lat.grouped(math.max(1, lat.length / 10)).map(g => f"${Stats.median(g.toSeq)}%.0f").mkString(" "))
    val served = Seq(p.warm, timed)
    val attempted = served.map(_.records.size).sum
    val failed = served.map(_.failed).sum
    Outcome(attempted, failed,
      Seq(
        Metric("setup_s", Stats.median(p.setups.map(_.seconds)), "s"),
        Metric("fit_s", Stats.median(p.setups.tail.map(_.fitSeconds)), "s"),
        Metric("query_p50_ms", Stats.quantile(lat, 0.5), "ms"),
        Metric("query_p90_ms", Stats.quantile(lat, 0.9), "ms"),
        Metric("qps", timed.qps, "1/s"),
        Metric("cache_mb", cacheMb, "MB")),
      Seq(
        Metric("fail_frac", failed.toDouble / attempted, "ratio"),
        Metric("timed_queries", lat.length, "count"),
        Metric("p90_samples_beyond", lat.count(_ > Stats.quantile(lat, 0.9)), "count")))
  }

  // ----------------------------------------------------------------- shared

  final case class Setup(df: DataFrame, model: GbdaModel, seconds: Double, encodeMs: Double, fitSeconds: Double)

  /** Generated graphs → cached branch DataFrame → first fitted model. */
  def setup(spark: SparkSession, w: Workload): Setup = {
    val t0 = System.nanoTime
    val df = GraphFrames.toBranchDf(spark, w.db).cache()
    df.count()
    val t1 = System.nanoTime
    val model = fit(df, w)
    val t2 = System.nanoTime
    log(f"set-up: encode ${(t1 - t0) / 1e9}%.2fs, fit ${(t2 - t1) / 1e9}%.2fs")
    Setup(df, model, (t2 - t0) / 1e9, (t1 - t0) / 1e6, (t2 - t1) / 1e9)
  }

  final case class Prepared(setups: Vector[Setup], expected: Vector[Set[(Long, Int)]], warm: ServePhase)

  /** `reps` set-ups back to back, the expected answers for the last (served)
    * one, and the warm-up on it. Only the last set-up's DataFrame stays cached.
    */
  def prepare(spark: SparkSession, w: Workload, reps: Int): Prepared = {
    // Each later set-up drops the previous cache first: Spark would otherwise
    // reuse the cached data of an identical plan instead of building it anew.
    val setups = (2 to reps).foldLeft(Vector(setup(spark, w))) { (done, _) =>
      done.last.df.unpersist(blocking = true)
      done :+ setup(spark, w)
    }
    val s = setups.last
    val expected = Reference.answers(w, s.model)
    log("reference answers computed")
    val warm = Serve.run(s.df, s.model, w.copy(clients = Runtime.getRuntime.availableProcessors),
      expected, "warm", WarmSeconds, WarmQueries)
    log(s"warmed up with ${warm.records.size} queries")
    Prepared(setups, expected, warm)
  }

  def fit(df: DataFrame, w: Workload): GbdaModel =
    GbdaSearch.fitModel(df, Workloads.TauHat, w.nPairs, extraVs = w.extraVs)

  /** In-memory size of every cached RDD (only the branch DataFrame is cached). */
  def cachedMb(spark: SparkSession): Double =
    spark.sparkContext.getRDDStorageInfo.filter(_.isCached).map(_.memSize).sum / 1e6

  // -------------------------------------------------------------- plumbing

  def fmt(v: Double): String = if (v.isNaN || v.isInfinite) "0" else v.toString

  private def printProvenance(spark: SparkSession, w: Workload, args: Args, nproc: Int): Unit = {
    val fields = Seq(
      "workload" -> w.name, "seed" -> args.seed, "seconds" -> args.seconds,
      "trace" -> args.trace, "scale" -> args.scale, "clients" -> w.clients,
      "db_graphs" -> w.db.size, "db_vertices" -> w.db.map(_.n.toLong).sum,
      "distinct_queries" -> w.queries.size, "tau_hat" -> Workloads.TauHat,
      "gamma" -> Workloads.Gamma, "n_pairs" -> w.nPairs,
      "nproc" -> nproc, "host_cpus" -> sys.props.getOrElse("perfbench.host_cpus", "unknown"),
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "jdk" -> System.getProperty("java.version"), "spark" -> spark.version,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "git_commit" -> sys.props.getOrElse("perfbench.commit", "unknown"),
      "source_sha256" -> sys.props.getOrElse("perfbench.sources", "unknown"))
    val body = fields.map {
      case (k, v: String) => s""""$k": "$v""""
      case (k, v) => s""""$k": $v"""
    }.mkString("{", ", ", "}")
    println(s"provenance $body")
  }

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => usage(s"bad argument ${other.mkString(" ")}")
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "scale")
    kv.keys.find(k => !known(k)).foreach(k => usage(s"unknown option --$k"))
    def need(k: String) = kv.getOrElse(k, usage(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => usage(s"--trace must be 0 or 1, got $t")
    }
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, trace,
      kv.get("scale").map(_.toDouble).getOrElse(1.0))
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"$msg\nusage: --workload <${Workloads.Names.mkString("|")}> " +
      "--seed <n> --seconds <s> --trace <0|1> [--scale <fraction>]")
    sys.exit(2)
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs.toArray, 0.5)

  /** Linear-interpolation quantile of the sorted sample (R-7). */
  def quantile(xs: Array[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val pos = q * (s.length - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, s.length - 1)
      s(lo) + (pos - lo) * (s(hi) - s(lo))
    }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}
