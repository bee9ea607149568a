package repro.perfbench

import java.io.File
import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import repro.core._
import repro.data.SpatialStreams
import repro.stream.EventStream

/** One benchmark run of one workload and seed.
  *
  * Load model: one caller in a closed loop with no think time. An op pulls
  * the next event from `EventStream.fromObjects`, calls the detector's
  * update, then reads its answer. Each timed repetition builds a fresh
  * detector, replays the fill untimed and times every op of the segment.
  */
final class Bench(wl: Workload, seed: Long, seconds: Int, outDir: File) {
  import Bench._

  private val spec = SpatialStreams.US.copy(seed = seed)
  val cfg: SurgeConfig = spec.config(0.5)
  private val W = cfg.windowMillis
  val objectsPerWindow: Double = spec.paperRatePerHour * wl.rateFraction * W / 3.6e6
  /** Fixed for a given `--seconds`, so that every version of the program
    * is timed on the same ops.
    */
  val reps: Int = math.max(1, math.round(seconds / wl.repSeconds).toInt)
  val objects: Int = math.round((2 + wl.segmentWindows) * objectsPerWindow).toInt
  val rateMultiplier: Double = wl.rateFraction * 1e6 / objects
  /** Repetition `r` replays its own stream, so a run averages over several
    * hotspot layouts and burst schedules.
    */
  def streamSeed(r: Int): Long = seed * 1000003L + r

  var attempted = 0
  var failed = 0
  val metrics = ArrayBuffer.empty[Metric]
  val notes = ArrayBuffer.empty[(String, Any)]

  private def record(result: Option[String], rep: Int, event: Int): Unit = {
    attempted += 1
    result.foreach { msg =>
      failed += 1
      println(s"MISMATCH workload=${wl.name} seed=$seed rep=$rep event=$event: $msg")
    }
  }

  // ------------------------------------------------------------------
  // Set-up: stream generation and detector construction.
  // ------------------------------------------------------------------

  private def setUp(): IndexedSeq[RepStream] = {
    val times = ArrayBuffer.empty[Double]
    var streams: IndexedSeq[RepStream] = null
    for (_ <- 1 to SetupRepeats) {
      System.gc()
      val t0 = System.nanoTime()
      streams = (0 until reps).map { r =>
        RepStream(r, SpatialStreams.generate(spec.copy(seed = streamSeed(r)), objects, rateMultiplier))
      }
      wl.subject(cfg)
      times += (System.nanoTime() - t0) / 1e9
    }
    metrics += Metric("setup_s", Percentiles.median(times.toSeq), "s")
    notes += "setup_runs_s" -> times.map(fmt).mkString("[", ",", "]")
    streams
  }

  /** Replays events through `s` untimed up to the first `Expired` one,
    * which is returned unprocessed with the number of events before it.
    */
  private def fill(it: Iterator[Event], s: Subject): (Event, Int) = {
    var i = 0
    var e = it.next()
    while (e.kind != EventKind.Expired) { s.process(e); s.answer(); e = it.next(); i += 1 }
    (e, i)
  }

  /** Shared warm-up: the first repetition's stream replayed through
    * throwaway detectors until [[WarmupMinS]] have passed, so that timed
    * code runs compiled from the start.
    */
  private def warmUp(st: RepStream): Double = {
    val t0 = System.nanoTime()
    do {
      val s = wl.subject(cfg)
      EventStream.fromObjects(st.objs, W, drainTail = false).foreach { e => s.process(e); s.answer() }
    } while (System.nanoTime() - t0 < WarmupMinS * 1e9)
    (System.nanoTime() - t0) / 1e9
  }

  /** The live set as of a given event (or of the last one), rebuilt from a
    * second pass over the repetition's events that only advances when asked.
    */
  private final class Shadow(st: RepStream) {
    private val it = EventStream.fromObjects(st.objs, W, drainTail = false)
    private val live = new LiveWindows(W)
    private var done = 0
    var now = 0L
    def at(event: Int): IndexedSeq[SpatialObj] = {
      while (done <= event && it.hasNext) { val e = it.next(); live(e); now = e.at; done += 1 }
      live.objectsAt(now)
    }
  }

  // ------------------------------------------------------------------
  // One timed repetition. With `log == null` an op costs two clock reads
  // of overhead; with a log, spans are recorded around each layer call.
  // Every `checkEvery` ops, and after the last one, the answer is checked
  // outside the timed ops.
  // ------------------------------------------------------------------

  private def timedRep(st: RepStream, log: SpanLog): Rep = {
    val s  = wl.subject(cfg)
    val it = EventStream.fromObjects(st.objs, W, drainTail = false)
    val (first, filled) = fill(it, s)

    val shadow = new Shadow(st)
    val checkEvery = math.max(1, (3 * wl.segmentWindows * objectsPerWindow / wl.checksPerRep).toInt)
    var checkNs = 0L
    def check(i: Int): Unit = {
      val c0 = System.nanoTime()
      record(s.check(shadow.at(filled + i), shadow.now), st.rep, filled + i)
      checkNs += System.nanoTime() - c0
    }
    val lat = new Array[Long](3 * st.objs.length)
    val s0  = s.searches
    val r0  = s.sweptRects
    var searchingOps = 0L
    var searchingNs  = 0L
    val w0  = System.nanoTime()
    var i   = 0
    if (log == null) while (i == 0 || it.hasNext) {
      val a = System.nanoTime()
      val e = if (i == 0) first else it.next()
      s.process(e)
      s.answer()
      lat(i) = System.nanoTime() - a
      i += 1
      if (i % checkEvery == 0) check(i - 1)
    } else while (i == 0 || it.hasNext) {
      val before = s.searches
      val a = System.nanoTime()
      val e = if (i == 0) first else it.next()
      val b = System.nanoTime()
      s.process(e)
      val c = System.nanoTime()
      s.answer()
      val d = System.nanoTime()
      lat(i) = d - a
      if (s.searches != before) { searchingOps += 1; searchingNs += d - a }
      val root = log.add(SpanOp, -1, a, d)
      log.add(SpanNext, root, a, b)
      log.add(SpanProcess, root, b, c)
      log.add(SpanAnswer, root, c, d)
      i += 1
      if (i % checkEvery == 0) check(i - 1)
    }
    val busy = System.nanoTime() - w0 - checkNs
    if (i % checkEvery != 0) check(i - 1)
    notes += s"rep${st.rep}_check_s" -> fmt(checkNs / 1e9)
    Rep(java.util.Arrays.copyOf(lat, i), busy, s,
      searchingOps, searchingNs, s.searches - s0, if (r0 < 0) -1L else s.sweptRects - r0)
  }

  // ------------------------------------------------------------------
  // Runs.
  // ------------------------------------------------------------------

  /** End-to-end run: every repetition timed without tracing. Each time
    * metric is the median over repetitions of the repetition's own value,
    * so that one repetition with an unusual hotspot layout, or one slowed
    * by the host, does not move the result.
    */
  def runUntraced(): Unit = {
    val streams = setUp()
    notes += "warmup_s" -> fmt(warmUp(streams.head))
    val done = streams.map { st =>
      val r = timedRep(st, null)
      if (st.rep == 0) metrics += Metric("heap_live_mb", liveHeapMb(r.subject), "MB")
      r
    }
    val opsPerS = done.map(r => r.latNs.length / (r.busyNs / 1e9))
    val sorted  = done.map { r => val l = r.latNs.clone(); java.util.Arrays.sort(l); l }
    val p50Us   = sorted.map(Percentiles.of(_, 0.50) / 1e3)
    val p99Us   = sorted.map(Percentiles.of(_, 0.99) / 1e3)
    metrics.prependAll(Seq(
      Metric("ops_per_s", Percentiles.median(opsPerS), "1/s"),
      Metric("latency_p50_us", Percentiles.median(p50Us), "us"),
      Metric("latency_p99_us", Percentiles.median(p99Us), "us"),
    ))
    notes += "timed_ops" -> done.map(_.latNs.length).sum
    notes += "rep_ops_per_s" -> opsPerS.map(fmt).mkString("[", ",", "]")
    notes += "rep_p99_us" -> p99Us.map(fmt).mkString("[", ",", "]")
  }

  /** Per-layer run: the first repetition untraced, traced, and untraced
    * again (the tracing overhead is taken against the mean of the two
    * untraced ones, so that JIT progress does not count as overhead), then
    * direct SL-CSPOT and Spark solves of snapshots of the stream.
    */
  def runTraced(sparkCores: Int): Unit = {
    val streams = setUp()
    metrics.clear()
    val st     = streams.head
    val warm   = warmUp(st)
    val base   = timedRep(st, null)
    val log    = new SpanLog(12 * st.objs.length + 1024)
    val t      = timedRep(st, log)
    val after  = timedRep(st, null)
    val lat    = base.latNs.clone()
    java.util.Arrays.sort(lat)

    val layers = log.summary()
    def layer(n: Byte) = layers.getOrElse(n, SpanLog.Layer(Array.emptyLongArray, 0L))
    val opNs  = layer(SpanOp).totalNs.toDouble
    val ops   = layer(SpanOp).count
    // A detector that hides its cells is given those of the reference grid,
    // which its first layer (seeing every live rect) holds.
    val cells = if (t.subject.cellsLive >= 0) t.subject.cellsLive else {
      val end = new Shadow(st)
      Reference.cellGroups(end.at(Int.MaxValue), end.now, cfg).size
    }
    metrics ++= Seq(
      Metric("stream.next_ns_mean", layer(SpanNext).meanNs, "ns"),
      Metric("stream.self_share", layer(SpanNext).selfNs / opNs, "ratio"),
      Metric("stream.events", ops.toDouble, "count"),
      Metric("process.ns_mean", layer(SpanProcess).meanNs, "ns"),
      Metric("process.ns_p99", Percentiles.of(layer(SpanProcess).durations, 0.99).toDouble, "ns"),
      Metric("process.self_share", layer(SpanProcess).selfNs / opNs, "ratio"),
      Metric("query.ns_mean", layer(SpanAnswer).meanNs, "ns"),
      Metric("query.ns_p99", Percentiles.of(layer(SpanAnswer).durations, 0.99).toDouble, "ns"),
      Metric("query.self_share", layer(SpanAnswer).selfNs / opNs, "ratio"),
      Metric("cells.live", cells.toDouble, "count"),
      Metric("sweep.search_rate", t.searchingOps.toDouble / ops, "ratio"),
      Metric("sweep.searches", t.searches.toDouble, "count"),
      Metric("sweep.searches_per_op", t.searches.toDouble / ops, "ratio"),
      Metric("sweep.rects_per_search",
        if (t.swept < 0 || t.searches == 0) 0.0 else t.swept.toDouble / t.searches, "count"),
      Metric("sweep.search_time_share", t.searchingOpNs / opNs, "ratio"),
    )
    snapshots(st, log, sparkCores)
    metrics ++= Seq(
      Metric("latency_p999_us", Percentiles.of(lat, 0.999) / 1e3, "us"),
      Metric("latency_max_us", lat.last / 1e3, "us"),
      Metric("warmup_s", warm, "s"),
      Metric("trace.overhead_pct", 100.0 * (2.0 * t.busyNs / (base.busyNs + after.busyNs) - 1), "%"),
    )
    val file = new File(outDir, s"trace-${wl.name}-seed$seed.tsv.gz")
    log.writeTsv(file, SpanNames)
    notes += "trace_file" -> file.getPath
    notes += "spans" -> log.size
  }

  /** Snapshots at evenly spaced times of the segment: every cell solved by
    * a direct, single-threaded `SweepLine.burstyPoint` call, then the same
    * snapshot solved by `SnapshotSurgeSpark`; the two scores must agree.
    */
  private def snapshots(st: RepStream, log: SpanLog, sparkCores: Int): Unit = {
    val first = st.objs.head.t + 2 * W
    val last  = st.objs.last.t
    val nows  = (1 to SnapshotCount).map(j => first + (last - first) * j / SnapshotCount)
    val directMs = ArrayBuffer.empty[Double]
    val liveRects = ArrayBuffer.empty[Double]
    val best = nows.map { now =>
      val a = System.nanoTime()
      val root = log.open(SpanSnapshot, -1, a)
      val groups = Reference.cellGroups(st.objs, now, cfg)
      var top: Option[BurstyPoint] = None
      groups.foreach { case ((i, j), rs) =>
        val s0 = System.nanoTime()
        val r  = SweepLine.burstyPoint(rs, Reference.cellBox(i, j, cfg), now, cfg)
        log.add(SpanSweep, root, s0, System.nanoTime())
        r.point.foreach(q => if (top.forall(q.score > _.score)) top = Some(q))
      }
      log.close(root, System.nanoTime())
      directMs += (System.nanoTime() - a) / 1e6
      liveRects += st.objs.count(o => Win.of(o.t, now, W) != Win.Out)
      top.map(_.score)
    }
    val sweeps = log.summary().get(SpanSweep)
    metrics ++= Seq(
      Metric("sweep.ns_per_cell_mean", sweeps.fold(0.0)(_.meanNs), "ns"),
      Metric("sweep.cells", sweeps.fold(0.0)(_.count.toDouble / nows.length), "count"),
    )

    val sp = SparkSnapshot.start(sparkCores, outDir)
    try {
      val df = sp.frame(st.objs)
      sp.solve(df, cfg, nows.head) // warm-up: first-query code generation
      val sparkMs = nows.zip(best).map { case (now, want) =>
        val a = System.nanoTime()
        val got = sp.solve(df, cfg, now)
        val b = System.nanoTime()
        log.add(SpanSpark, -1, a, b)
        record(
          (got.map(_.score), want) match {
            case (None, None) => None
            case (Some(g), Some(w)) if Reference.agrees(g, w) => None
            case (g, w) => Some(s"Spark snapshot at t=$now: spark $g, direct $w")
          }, st.rep, -1)
        (b - a) / 1e6
      }
      metrics ++= Seq(
        Metric("spark.session_s", sp.startS, "s"),
        Metric("spark.query_ms_p50", Percentiles.median(sparkMs), "ms"),
        Metric("spark.driver_solve_ms_p50", Percentiles.median(directMs.toSeq), "ms"),
        Metric("spark.live_rects", liveRects.sum / liveRects.length, "count"),
      )
      notes += "spark_master" -> sp.master
    } finally sp.stop()
  }

  /** Provenance of the run, printed with the results. */
  def provenance: Seq[(String, Any)] = {
    val rt = ManagementFactory.getRuntimeMXBean
    Seq(
      "workload" -> wl.name, "seed" -> seed, "seconds" -> seconds, "reps" -> reps,
      "segment_windows" -> wl.segmentWindows, "stream_seeds" -> (0 until reps).map(streamSeed).mkString("[", ",", "]"),
      "dataset" -> spec.name, "objects_per_stream" -> objects,
      "objects_per_window" -> fmt(objectsPerWindow), "rate_multiplier" -> fmt(rateMultiplier),
      "paper_rate_share" -> wl.rateFraction, "window_ms" -> cfg.windowMillis, "alpha" -> cfg.alpha,
      "query_w" -> fmt(cfg.rectW), "query_h" -> fmt(cfg.rectH), "k" -> wl.k,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "jvm_flags" -> rt.getInputArguments.asScala.filter(a => a.startsWith("-Xm") || a.startsWith("-XX")).mkString(" "),
    ) ++ notes
  }
}

object Bench {
  final case class Metric(name: String, value: Double, unit: String)

  /** The stream repetition `rep` replays: two windows of arrivals that
    * fill the detector untimed (ops are timed from the first `Expired` event
    * on), then the timed segment.
    */
  final case class RepStream(rep: Int, objs: IndexedSeq[SpatialObj])

  /** One timed repetition: op latencies, time in timed ops (checks
    * excluded), its detector and its search counters.
    */
  final case class Rep(latNs: Array[Long], busyNs: Long, subject: Subject,
                       searchingOps: Long, searchingOpNs: Long, searches: Long, swept: Long)

  val SetupRepeats  = 7
  val SnapshotCount = 5
  val WarmupMinS    = 4.0

  val SpanOp: Byte       = 0
  val SpanNext: Byte     = 1
  val SpanProcess: Byte  = 2
  val SpanAnswer: Byte   = 3
  val SpanSnapshot: Byte = 4
  val SpanSweep: Byte    = 5
  val SpanSpark: Byte    = 6
  private val spanNames = Array("op", "stream.next", "process", "answer", "snapshot", "sweep", "spark.query")
  val SpanNames: Byte => String = b => spanNames(b.toInt)

  def fmt(d: Double): String = f"$d%.6g"

  /** Used heap right after full collections while `keep` is still
    * reachable. The pools' after-collection usage is read rather than their
    * current usage, which also counts the allocation buffers handed out to
    * threads once the collection ends (several MB, varying from run to run).
    */
  def liveHeapMb(keep: AnyRef): Double = {
    System.gc(); System.gc()
    java.lang.ref.Reference.reachabilityFence(keep)
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP)
      .map(p => Option(p.getCollectionUsage).fold(0L)(_.getUsed))
      .sum / 1048576.0
  }
}
