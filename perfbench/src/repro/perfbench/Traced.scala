package repro.perfbench

import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{BranchModel, Gbda, GbdaModel, GbdaOps, Gmm, JeffreysPrior, ModelParams}
import repro.graphs.LabeledGraph
import repro.perfbench.Main.{Metric, Outcome}
import repro.spark.GbdSpark

/** The traced run: per-layer metrics from a [[SparkTrace]] listener plus timed
  * driver-side calls into each layer's public functions on the workload's
  * inputs. Serving alternates untraced and traced phases; the difference of
  * their medians is the tracing overhead.
  */
object Traced {

  /** Names for `fitModel`'s jobs, by the order in which their call sites
    * first appear: id collect, pairwise GBD, the two alphabet counts, the
    * Jeffreys tasks. Further call sites are summed into `other`.
    */
  val FitJobNames = Vector("collect_ids", "pairwise_gbd", "count_vlabels", "count_elabels", "jeffreys")

  /** Printed, but kept out of the JSON result: both read 0 ms at this commit
    * (`fitModel` has exactly five actions; job intervals stay inside query windows).
    */
  val PrintedOnly = Set("fit.job_ms.other", "trace.remainder_ms_per_query")

  /** At most this many sizes v are timed for the Jeffreys and Λ₁ replays. */
  val MaxTimedVs = 16

  /** Untraced and traced phases per side. The order flips each round, so
    * the JIT's warm-up drift does not land on one side of the overhead.
    */
  val Rounds = 2

  /** Queries per side (untraced, traced) at least. */
  val TracedQueries = 50

  def run(spark: SparkSession, w: Workload, args: Main.Args): Outcome = {
    val sc = spark.sparkContext
    val p = Main.prepare(spark, w, 2)
    val (s, expected) = (p.setups.last, p.expected)

    val trace = new SparkTrace
    def serve(phase: String) =
      Serve.run(s.df, s.model, w, expected, phase, args.seconds / (2 * Rounds), TracedQueries / Rounds)
    def tracedPhase(r: Int): ServePhase = {
      sc.addSparkListener(trace)
      try {
        val phase = serve(s"trace$r")
        trace.drain(sc)
        phase
      } finally sc.removeSparkListener(trace)
    }
    // Odd rounds serve untraced first, even rounds traced first.
    val rounds = (1 to Rounds).map { r =>
      if (r % 2 == 1) { val plain = serve(s"plain$r"); (plain, tracedPhase(r)) }
      else { val traced = tracedPhase(r); (serve(s"plain$r"), traced) }
    }
    val (plain, traced) = (rounds.map(_._1), rounds.map(_._2))
    sc.addSparkListener(trace)
    val (fitMetrics, fitSites, pairwise) =
      try {
        val (fm, sites) = tracedFit(s.df, w, trace)
        (fm, sites, pairwiseAndGmm(spark, s.df, w, args.seed, trace))
      } finally sc.removeSparkListener(trace)

    fitSites.foreach { case (site, name, ms) => println(f"fit action $name%-14s $ms%8d ms  $site") }
    val served = p.warm +: (plain ++ traced)
    val all = Seq(Metric("graphframes.encode_ms", s.encodeMs, "ms")) ++ branchesReplay(w) ++ fitMetrics ++
      perQuery(traced, plain, trace) ++ pairwise ++ kernelAndPhiReplay(w, s.model) ++ priorReplay(w, s.model)
    val (shown, reported) = all.partition(m => PrintedOnly(m.name))
    Outcome(served.map(_.records.size).sum, served.map(_.failed).sum, reported, shown)
  }

  // ------------------------------------------------------------ Spark side

  /** One `fitModel` on the cached DataFrame, with its jobs tagged `fit`. */
  private def tracedFit(df: DataFrame, w: Workload, trace: SparkTrace): (Seq[Metric], Seq[(String, String, Long)]) = {
    val sc = df.sparkSession.sparkContext
    sc.setLocalProperty(Serve.TagKey, "fit")
    val t0 = System.currentTimeMillis
    try Main.fit(df, w)
    finally sc.setLocalProperty(Serve.TagKey, null)
    val t1 = System.currentTimeMillis
    trace.drain(sc)
    val jobs = trace.jobsOf("fit")
    val sites = jobs.map(_.callSite).distinct
    val named = sites.zipWithIndex.map { case (site, i) =>
      val spans = jobs.filter(_.callSite == site).map(j => (j.startMs, j.endMs))
      (site, FitJobNames.lift(i).getOrElse("other"), SparkTrace.unionMs(spans))
    }
    val byName = (FitJobNames :+ "other").map(n => Metric(s"fit.job_ms.$n",
      named.filter(_._2 == n).map(_._3).sum.toDouble, "ms"))
    val inside = SparkTrace.unionMs(jobs.map(j => (j.startMs, j.endMs)), t0, t1)
    (Seq(
      Metric("fit.jobs", jobs.size, "count"),
      Metric("fit.tasks", trace.tasks("fit").tasks.toDouble, "count"),
      Metric("fit.driver_ms", (t1 - t0 - inside).toDouble, "ms")) ++ byName, named)
  }

  private def perQuery(traced: Seq[ServePhase], plain: Seq[ServePhase], trace: SparkTrace): Seq[Metric] = {
    val records = traced.flatMap(_.records)
    val n = records.size.toDouble
    final case class Split(jobs: Double, jobMs: Double, driverMs: Double, remainderMs: Double, waitMs: Double,
                           t: SparkTrace#Tasks)
    val splits = records.map { r =>
      val jobs = trace.jobsOf(r.tag)
      val spans = jobs.map(j => (j.startMs, j.endMs))
      val wall = r.endMs - r.startMs
      val inside = SparkTrace.unionMs(spans, r.startMs, r.endMs)
      val union = SparkTrace.unionMs(spans)
      Split(jobs.size, union.toDouble, (wall - inside).toDouble, (inside - union).toDouble,
        jobs.filter(_.firstLaunchMs >= 0).map(j => j.firstLaunchMs - j.startMs).sum.toDouble, trace.tasks(r.tag))
    }
    def avg(f: Split => Double): Double = splits.map(f).sum / n
    val tracedMs = traced.flatMap(_.latenciesMs).toArray
    val p50Traced = Stats.quantile(tracedMs, 0.5)
    val p50Plain = Stats.quantile(plain.flatMap(_.latenciesMs).toArray, 0.5)
    Seq(
      Metric("spark.jobs_per_query", avg(_.jobs), "count"),
      Metric("spark.stages_per_query", avg(_.t.stages.toDouble), "count"),
      Metric("spark.tasks_per_query", avg(_.t.tasks.toDouble), "count"),
      Metric("spark.task_run_ms_per_query", avg(_.t.runMs.toDouble), "ms"),
      Metric("spark.task_cpu_ms_per_query", avg(_.t.cpuNs / 1e6), "ms"),
      Metric("spark.task_deser_ms_per_query", avg(_.t.deserMs.toDouble), "ms"),
      Metric("spark.gc_ms_per_query", avg(_.t.gcMs.toDouble), "ms"),
      Metric("spark.shuffle_kb_per_query", avg(_.t.shuffleWriteBytes / 1e3), "kB"),
      Metric("spark.result_kb_per_query", avg(_.t.resultBytes / 1e3), "kB"),
      Metric("spark.job_ms_per_query", avg(_.jobMs), "ms"),
      Metric("spark.driver_ms_per_query", avg(_.driverMs), "ms"),
      Metric("spark.sched_wait_ms_per_query", avg(_.waitMs), "ms"),
      Metric("trace.remainder_ms_per_query", avg(_.remainderMs), "ms"),
      Metric("trace.query_mean_ms", Stats.mean(tracedMs.toSeq), "ms"),
      Metric("trace.query_p50_ms", p50Traced, "ms"),
      Metric("trace.untraced_p50_ms", p50Plain, "ms"),
      Metric("trace.overhead_ms", p50Traced - p50Plain, "ms"),
      Metric("trace.queries", n, "count"))
  }

  private def pairwiseAndGmm(spark: SparkSession, df: DataFrame, w: Workload,
                             seed: Long, trace: SparkTrace): Seq[Metric] = {
    import spark.implicits._
    val ids = w.db.map(_.id)
    val rng = new Random(seed)
    val pairs = Seq.fill(w.nPairs) {
      val i = rng.nextInt(ids.size)
      var j = rng.nextInt(ids.size)
      while (j == i) j = rng.nextInt(ids.size)
      (ids(i), ids(j))
    }
    val sc = spark.sparkContext
    sc.setLocalProperty(Serve.TagKey, "pairwise")
    val (gbds, pairwiseMs) = try timeMs {
      GbdSpark.pairwiseGbd(df, pairs.toDF("gid1", "gid2")).select("gbd").collect().map(_.getInt(0).toDouble)
    } finally sc.setLocalProperty(Serve.TagKey, null)
    trace.drain(sc)
    val (_, gmmMs) = timeMs(Gmm.fit(gbds, 3))
    Seq(
      Metric("gbdspark.pairwise_ms", pairwiseMs, "ms"),
      Metric("gbdspark.pairwise_shuffle_mb", trace.tasks("pairwise").shuffleWriteBytes / 1e6, "MB"),
      Metric("gmm.fit_ms", gmmMs, "ms"),
      Metric("gmm.samples", gbds.length, "count"))
  }

  // ----------------------------------------------------------- driver side

  private def branchesReplay(w: Workload): Seq[Metric] = {
    val (_, ms) = timeMs(w.db.foreach(g => LabeledGraph.branchesOf(g.vertexLabels, g.edges)))
    Seq(
      Metric("graphs.branches_ms", ms, "ms"),
      Metric("graphs.branches_total", w.db.map(_.n.toDouble).sum, "count"))
  }

  private def kernelAndPhiReplay(w: Workload, model: GbdaModel): Seq[Metric] = {
    val db = w.db.map(g => (g.n, g.branches))
    val th = 3 * Workloads.TauHat
    def kernel(q: LabeledGraph): Array[Int] = db.map { case (_, b) => GbdaOps.gbdFromSortedBranches(b, q.branches) }.toArray
    w.queries.take(3).foreach(kernel) // JIT warm-up
    final case class Row(kernelMs: Double, branches: Long, warmMs: Double, coldMs: Double, keys: Int,
                         zero: Int, accepted: Int, prunable: Int)
    val rows = w.queries.map { q =>
      val (gbds, kernelMs) = timeMs(kernel(q))
      val vs = db.map { case (n, _) => math.max(n, q.n).toLong }.toArray
      def phis(m: GbdaModel): Array[Double] = Array.tabulate(gbds.length)(i => Gbda.phi(gbds(i), vs(i), m))
      val (p, warmMs) = timeMs(phis(model))
      val (_, coldMs) = timeMs(phis(model.copy()))
      Row(kernelMs, db.map(_._2.length.toLong + q.branches.length).sum, warmMs, coldMs,
        keys = gbds.indices.filter(i => gbds(i) <= th).map(i => (gbds(i), vs(i))).distinct.size,
        zero = gbds.count(_ > th), accepted = p.count(_ >= Workloads.Gamma),
        prunable = db.count { case (n, _) => math.abs(n - q.n) > th })
    }
    val nq = rows.size.toDouble
    val pairs = nq * db.size
    Seq(
      Metric("gbd.calls_per_query", db.size, "count"),
      Metric("gbd.ms_per_query", rows.map(_.kernelMs).sum / nq, "ms"),
      Metric("gbd.ns_per_branch", rows.map(_.kernelMs).sum * 1e6 / rows.map(_.branches).sum, "ns"),
      Metric("phi.calls_per_query", db.size, "count"),
      Metric("phi.keys_per_query", rows.map(_.keys).sum / nq, "count"),
      Metric("phi.warm_ms_per_query", rows.map(_.warmMs).sum / nq, "ms"),
      Metric("phi.cold_ms_per_query", rows.map(_.coldMs).sum / nq, "ms"),
      Metric("phi.zero_frac", rows.map(_.zero).sum / pairs, "ratio"),
      Metric("phi.accept_frac", rows.map(_.accepted).sum / pairs, "ratio"),
      Metric("phi.size_prunable_frac", rows.map(_.prunable).sum / pairs, "ratio"))
  }

  private def priorReplay(w: Workload, model: GbdaModel): Seq[Metric] = {
    val all = model.gedPrior.keys.toVector.sorted
    val vs = if (all.size <= MaxTimedVs) all
             else Vector.tabulate(MaxTimedVs)(i => all(i * (all.size - 1) / (MaxTimedVs - 1)))
    val th = Workloads.TauHat
    val (nVL, nEL) = (model.nVertexLabels, model.nEdgeLabels)
    def lambdas(v: Long): Double = {
      val p = ModelParams(v, nVL, nEL)
      var s = 0.0
      for (tau <- 0 to th; phi <- 0 to 3 * th) s += BranchModel.lambda1(tau, phi, p)
      s
    }
    lambdas(vs.head) // JIT warm-up
    val (_, lambdaMs) = timeMs(vs.foreach(lambdas))
    val lambdaCalls = vs.size * (th + 1) * (3 * th + 1)
    val jeffreysMs = vs.map(v => timeMs(JeffreysPrior.forV(v, th, nVL, nEL))._2)
    val dbSizes = w.db.map(_.n.toLong).distinct
    val missing = w.queries.map(q => dbSizes.map(math.max(_, q.n.toLong)).distinct.count(v => !model.gedPrior.contains(v)))
    Seq(
      Metric("branchmodel.lambda1_us", lambdaMs * 1e3 / lambdaCalls, "us"),
      Metric("jeffreys.vs", model.gedPrior.size, "count"),
      Metric("jeffreys.ms_per_v", Stats.mean(jeffreysMs), "ms"),
      Metric("jeffreys.max_ms", jeffreysMs.max, "ms"),
      Metric("jeffreys.missing_vs_per_query", Stats.mean(missing.map(_.toDouble)), "count"))
  }

  private def timeMs[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime
    val r = f
    (r, (System.nanoTime - t0) / 1e6)
  }
}
