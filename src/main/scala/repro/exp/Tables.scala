package repro.exp

import repro.baseline.AG2
import repro.core._
import repro.core.topk.KCellCspot
import repro.data.SpatialStreams
import repro.data.SpatialStreams.DatasetSpec
import repro.stream.EventStream

/** Shared experiment drivers for the paper's evaluation (Section VII).
  * Every bench suite and every spark-submit job delegates here, so the
  * numbers in `EXPERIMENTS.md` are regenerable from either entrypoint.
  *
  * Scale: streams run at the paper's durations with `n` objects (arrival
  * rate scaled by n/1e6 — see DESIGN.md §3). `n` defaults come from the
  * `SURGE_BENCH_N` env var.
  */
object Tables {

  val defaultAlpha = 0.5

  def envN(default: Int): Int =
    sys.env.get("SURGE_BENCH_N").map(_.toInt).getOrElse(default)
  def envSample(default: Int): Int =
    sys.env.get("SURGE_BENCH_SAMPLE").map(_.toInt).getOrElse(default)

  private val Hour   = 3600000L
  private val Minute = 60000L

  /** Window sweeps of Figs 5/9 and Table II. */
  def sweepWindows(spec: DatasetSpec): Seq[(String, Long)] =
    if (spec.name == "Taxi")
      Seq("1m" -> Minute, "5m" -> (5 * Minute), "10m" -> (10 * Minute),
          "20m" -> (20 * Minute), "30m" -> (30 * Minute))
    else
      Seq("0.5h" -> Hour / 2, "1h" -> Hour, "2h" -> (2 * Hour),
          "5h" -> (5 * Hour), "12h" -> (12 * Hour))

  /** Window sweep of Table IV (UK/US extend to 24h there). */
  def tableIVWindows(spec: DatasetSpec): Seq[(String, Long)] =
    if (spec.name == "Taxi") sweepWindows(spec)
    else
      Seq("0.5h" -> Hour / 2, "1h" -> Hour, "2h" -> (2 * Hour),
          "12h" -> (12 * Hour), "24h" -> (24 * Hour))

  /** Stream for one (dataset, window) configuration: `n` objects at the
    * densest arrival rate that still fits ≥6 windows into the stream,
    * capped at the paper's rate. Scaling n below 1M while keeping the
    * paper's duration would starve every window (Table II's search-trigger
    * behaviour and the approximation ratios are density effects), so each
    * window size gets the most faithful per-window population `n` affords.
    */
  def streamFor(spec: DatasetSpec, n: Int, windowMillis: Long): IndexedSeq[SpatialObj] = {
    val wHours = windowMillis / 3600000.0
    val mult   = math.max(0.05, math.min(1e6 / n, spec.durationHours / (6 * wHours)))
    SpatialStreams.generate(spec, n, rateMultiplier = mult)
  }

  // ------------------------------------------------------------------
  // Core drivers
  // ------------------------------------------------------------------

  /** Drive `algo` over the event stream of `objs`, timing only the events
    * after the system is stable (first `Expired` seen — §VII-A "Stream
    * Workload"). Returns (messages timed, avg ns/message).
    */
  def timePerMessage(objs: IndexedSeq[SpatialObj], windowMillis: Long)
                    (algo: Event => Unit): (Long, Double) = {
    val (warmup, stable) = warmSplit(objs, windowMillis)
    warmup.foreach(algo)
    var messages = 0L
    var nanos    = 0L
    stable.foreach { e =>
      val t0 = System.nanoTime()
      algo(e)
      nanos += System.nanoTime() - t0
      messages += 1
    }
    (messages, if (messages == 0) 0.0 else nanos.toDouble / messages)
  }

  /** The event stream of `objs` split at the first `Expired` event: the
    * warm-up, then the stable part. Consume the first before the second.
    */
  private def warmSplit(objs: IndexedSeq[SpatialObj], windowMillis: Long): (Iterator[Event], Iterator[Event]) =
    EventStream.fromObjects(objs, windowMillis, drainTail = false).span(_.kind != EventKind.Expired)

  /** A fresh detector by its table name, fed one event per call; the top-k
    * detectors report `k` regions per event.
    */
  private def detector(name: String, cfg: SurgeConfig, k: Int = 1): Event => Unit = name match {
    case "CCS"    => val a = new CellCspot(cfg, BoundMode.Full); a.onEvent(_)
    case "B-CCS"  => val a = new CellCspot(cfg, BoundMode.StaticOnly); a.onEvent(_)
    case "Base"   => val a = new CellCspot(cfg, BoundMode.NoBounds); a.onEvent(_)
    case "aG2"    => val a = new AG2(cfg); a.onEvent(_)
    case "GAPS"   => val a = new GapSurge(cfg); a.onEvent(_)
    case "MGAPS"  => val a = new MGapSurge(cfg); a.onEvent(_)
    case "kCCS"   => val a = new KCellCspot(cfg, k); a.onEvent(_)
    case "kGAPS"  => val a = new GapSurge(cfg); e => { a.process(e); a.topK(k); () }
    case "kMGAPS" => val a = new MGapSurge(cfg); e => { a.process(e); a.topK(k); () }
  }

  /** Table II driver: fraction of rectangle messages that trigger at least
    * one SL-CSPOT search, for CCS vs B-CCS, counted post-warmup.
    */
  final case class SearchRatios(ccs: Double, bccs: Double, messages: Long)

  def searchRatios(objs: IndexedSeq[SpatialObj], cfg: SurgeConfig): SearchRatios = {
    val ccs  = new CellCspot(cfg, BoundMode.Full)
    val bccs = new CellCspot(cfg, BoundMode.StaticOnly)
    val (warmup, stable) = warmSplit(objs, cfg.windowMillis)
    warmup.foreach { e => ccs.onEvent(e); bccs.onEvent(e) }
    ccs.stats.reset(); bccs.stats.reset()
    stable.foreach { e => ccs.onEvent(e); bccs.onEvent(e) }
    SearchRatios(ccs.stats.searchRatio, bccs.stats.searchRatio, ccs.stats.messages)
  }

  /** Tables III/IV driver: average S(approx)/S(exact) sampled every
    * `sampleEvery` post-warmup events (CCS is the exact reference; its
    * queries — and therefore its searches — only run at sample points,
    * which does not change its answers).
    */
  final case class ApproxRatios(gaps: Double, mgaps: Double, samples: Int)

  def approxRatios(objs: IndexedSeq[SpatialObj], cfg: SurgeConfig,
                   sampleEvery: Int): ApproxRatios = {
    val ccs   = new CellCspot(cfg, BoundMode.Full)
    val gaps  = new GapSurge(cfg)
    val mgaps = new MGapSurge(cfg)
    var i     = 0L // counts every event, warm-up included
    var nS    = 0
    var accG  = 0.0
    var accM  = 0.0
    def step(e: Event): Unit = { ccs.process(e); gaps.process(e); mgaps.process(e); i += 1 }
    val (warmup, stable) = warmSplit(objs, cfg.windowMillis)
    warmup.foreach(step)
    stable.foreach { e =>
      step(e)
      if (i % sampleEvery == 0) {
        val exact = ccs.query().map(_.score).getOrElse(0.0)
        if (exact > 1e-9) {
          accG += gaps.top.map(_.score).getOrElse(0.0) / exact
          accM += mgaps.top.map(_.score).getOrElse(0.0) / exact
          nS += 1
        }
      }
    }
    ApproxRatios(
      if (nS == 0) 0.0 else accG / nS,
      if (nS == 0) 0.0 else accM / nS,
      nS,
    )
  }

  // ------------------------------------------------------------------
  // Table I — datasets
  // ------------------------------------------------------------------

  final case class TableIRow(name: String, n: Int, ratePerHour: Double,
                             latLo: Double, latHi: Double, lonLo: Double, lonHi: Double)

  def tableI(n: Int): Seq[TableIRow] =
    SpatialStreams.all.map { spec =>
      val objs = SpatialStreams.generate(spec, n)
      TableIRow(
        spec.name, objs.length, SpatialStreams.observedRatePerHour(objs),
        objs.map(_.y).min, objs.map(_.y).max,
        objs.map(_.x).min, objs.map(_.x).max,
      )
    }

  // ------------------------------------------------------------------
  // Table II — search-trigger ratio vs window size
  // ------------------------------------------------------------------

  final case class TableIIRow(dataset: String, window: String,
                              ccs: Double, bccs: Double,
                              paperCcs: Double, paperBccs: Double)

  /** Paper Table II values (percent) keyed by (dataset, window label). */
  val paperTableII: Map[(String, String), (Double, Double)] = Map(
    ("Taxi", "1m") -> (4.85, 92.63), ("Taxi", "5m") -> (3.20, 78.30),
    ("Taxi", "10m") -> (2.56, 70.00), ("Taxi", "20m") -> (2.13, 62.07),
    ("Taxi", "30m") -> (1.95, 57.90),
    ("UK", "0.5h") -> (0.34, 37.79), ("UK", "1h") -> (0.27, 28.23),
    ("UK", "2h") -> (0.23, 22.76), ("UK", "5h") -> (0.37, 21.64),
    ("UK", "12h") -> (0.48, 14.57),
    ("US", "0.5h") -> (0.60, 64.21), ("US", "1h") -> (0.68, 52.29),
    ("US", "2h") -> (0.70, 35.13), ("US", "5h") -> (0.52, 9.0),
    ("US", "12h") -> (0.60, 20.90),
  )

  def tableII(n: Int): Seq[TableIIRow] =
    for {
      spec        <- SpatialStreams.all
      (label, win) <- sweepWindows(spec)
    } yield {
      val objs = streamFor(spec, n, win)
      val cfg  = spec.config(defaultAlpha).withWindowMillis(win)
      val r    = searchRatios(objs, cfg)
      val (pc, pb) = paperTableII((spec.name, label))
      TableIIRow(spec.name, label, 100 * r.ccs, 100 * r.bccs, pc, pb)
    }

  // ------------------------------------------------------------------
  // Table III — approximation ratio vs α (US, |W|=1h)
  // ------------------------------------------------------------------

  final case class TableIIIRow(alpha: Double, gaps: Double, mgaps: Double,
                               paperGaps: Double, paperMgaps: Double)

  val paperTableIII: Map[Double, (Double, Double)] = Map(
    0.1 -> (82.57, 90.50), 0.3 -> (81.76, 89.44), 0.5 -> (80.67, 88.07),
    0.7 -> (77.23, 87.80), 0.9 -> (78.58, 86.67),
  )

  def tableIII(n: Int, sampleEvery: Int): Seq[TableIIIRow] = {
    val spec = SpatialStreams.US
    val objs = streamFor(spec, n, spec.defaultWindowMillis)
    Seq(0.1, 0.3, 0.5, 0.7, 0.9).map { a =>
      val cfg = spec.config(a)
      val r   = approxRatios(objs, cfg, sampleEvery)
      val (pg, pm) = paperTableIII(a)
      TableIIIRow(a, 100 * r.gaps, 100 * r.mgaps, pg, pm)
    }
  }

  // ------------------------------------------------------------------
  // Table IV — approximation ratio vs window size
  // ------------------------------------------------------------------

  final case class TableIVRow(dataset: String, window: String,
                              gaps: Double, mgaps: Double,
                              paperGaps: Double, paperMgaps: Double)

  val paperTableIV: Map[(String, String), (Double, Double)] = Map(
    ("Taxi", "1m") -> (76.34, 85.98), ("Taxi", "5m") -> (73.90, 85.14),
    ("Taxi", "10m") -> (75.12, 87.35), ("Taxi", "20m") -> (75.70, 88.34),
    ("Taxi", "30m") -> (76.35, 87.85),
    ("UK", "0.5h") -> (90.22, 93.13), ("UK", "1h") -> (91.56, 94.34),
    ("UK", "2h") -> (91.98, 93.76), ("UK", "12h") -> (89.82, 90.50),
    ("UK", "24h") -> (92.44, 92.82),
    ("US", "0.5h") -> (84.23, 88.61), ("US", "1h") -> (80.67, 88.07),
    ("US", "2h") -> (89.70, 91.44), ("US", "12h") -> (91.77, 91.77),
    ("US", "24h") -> (80.10, 84.34),
  )

  def tableIV(n: Int, sampleEvery: Int): Seq[TableIVRow] =
    for {
      spec        <- SpatialStreams.all
      (label, win) <- tableIVWindows(spec)
    } yield {
      val objs = streamFor(spec, n, win)
      val cfg  = spec.config(defaultAlpha).withWindowMillis(win)
      val r    = approxRatios(objs, cfg, sampleEvery)
      val (pg, pm) = paperTableIV((spec.name, label))
      TableIVRow(spec.name, label, 100 * r.gaps, 100 * r.mgaps, pg, pm)
    }

  // ------------------------------------------------------------------
  // Figure-shaped supplements (runtime, top-k, scalability)
  // ------------------------------------------------------------------

  final case class RuntimeRow(dataset: String, algo: String, nsPerMsg: Double)

  /** Fig 5/6-shaped comparison: avg processing time per message for every
    * algorithm at the dataset's default window and rectangle `q`.
    */
  def runtimeTable(n: Int, algos: Seq[String] =
      Seq("CCS", "B-CCS", "Base", "aG2", "GAPS", "MGAPS")): Seq[RuntimeRow] =
    for {
      spec <- SpatialStreams.all
      objs  = streamFor(spec, n, spec.defaultWindowMillis)
      cfg   = spec.config(defaultAlpha)
      algo <- algos
    } yield {
      val (_, ns) = timePerMessage(objs, cfg.windowMillis)(detector(algo, cfg))
      RuntimeRow(spec.name, algo, ns)
    }

  final case class TopKRow(dataset: String, k: Int, algo: String, nsPerMsg: Double)

  /** Fig 9-shaped comparison: top-k runtime vs k on each dataset. */
  def topKTable(n: Int, ks: Seq[Int] = Seq(3, 5, 7, 9),
                datasets: Seq[DatasetSpec] = Seq(SpatialStreams.US)): Seq[TopKRow] =
    for {
      spec <- datasets
      objs  = streamFor(spec, n, spec.defaultWindowMillis)
      cfg   = spec.config(defaultAlpha)
      k    <- ks
      algo <- Seq("kCCS", "kGAPS", "kMGAPS")
    } yield {
      val (_, ns) = timePerMessage(objs, cfg.windowMillis)(detector(algo, cfg, k))
      TopKRow(spec.name, k, algo, ns)
    }

  final case class ScalabilityRow(dataset: String, rateMult: Double, algo: String,
                                  secPerStreamHour: Double)

  /** Fig 8-shaped scalability: wall seconds needed to process one stream-hour
    * of events (`t_h`) as the arrival rate is multiplied.
    */
  def scalabilityTable(n: Int, mults: Seq[Double] = Seq(1, 2, 4, 8)): Seq[ScalabilityRow] =
    for {
      spec <- SpatialStreams.all
      mult <- mults
      algo <- Seq("CCS", "GAPS")
    } yield {
      val objs = SpatialStreams.generate(spec, n, rateMultiplier = mult)
      val cfg  = spec.config(defaultAlpha)
      val run  = detector(algo, cfg)
      val t0   = System.nanoTime()
      EventStream.fromObjects(objs, cfg.windowMillis, drainTail = false).foreach(run)
      val secs  = (System.nanoTime() - t0) / 1e9
      val hours = (objs.last.t - objs.head.t) / 3600000.0
      ScalabilityRow(spec.name, mult, algo, if (hours > 0) secs / hours else 0.0)
    }

  // ------------------------------------------------------------------
  // Formatting
  // ------------------------------------------------------------------

  def fmtTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  /** Table I with each dataset's paper rate scaled to `n` next to ours. */
  def showTableI(n: Int, rows: Seq[TableIRow]): String =
    s"Table I (datasets, n=$n; paper: 1M objects)\n" + fmtTable(
      Seq("Dataset", "#Objects", "Rate(/h)", "paper Rate(/h)", "Lat range", "Lon range"),
      rows.map { r =>
        val paper = SpatialStreams.all.find(_.name == r.name).get.paperRatePerHour
        Seq(r.name, r.n.toString, f"${r.ratePerHour}%.0f",
            f"${paper * n / 1e6}%.0f (scaled) / $paper%.0f",
            f"${r.latLo}%.1f..${r.latHi}%.1f", f"${r.lonLo}%.1f..${r.lonHi}%.1f")
      },
    )

  def showTableII(n: Int, rows: Seq[TableIIRow]): String =
    s"Table II (ratio of rectangle messages triggering a search, n=$n)\n" + fmtTable(
      Seq("Dataset", "Window", "CCS", "B-CCS", "paper CCS", "paper B-CCS"),
      rows.map(r => Seq(r.dataset, r.window, pct(r.ccs), pct(r.bccs), pct(r.paperCcs), pct(r.paperBccs))),
    )

  def showTableIII(n: Int, sampleEvery: Int, rows: Seq[TableIIIRow]): String =
    s"Table III (approx ratio vs alpha, US, |W|=1h, n=$n, sample=$sampleEvery)\n" + fmtTable(
      Seq("alpha", "GAPS", "MGAPS", "paper GAPS", "paper MGAPS"),
      rows.map(r => Seq(r.alpha.toString, pct(r.gaps), pct(r.mgaps), pct(r.paperGaps), pct(r.paperMgaps))),
    )

  def showTableIV(n: Int, sampleEvery: Int, rows: Seq[TableIVRow]): String =
    s"Table IV (approx ratio vs window, alpha=$defaultAlpha, n=$n, sample=$sampleEvery)\n" + fmtTable(
      Seq("Dataset", "Window", "GAPS", "MGAPS", "paper GAPS", "paper MGAPS"),
      rows.map(r => Seq(r.dataset, r.window, pct(r.gaps), pct(r.mgaps), pct(r.paperGaps), pct(r.paperMgaps))),
    )

  def pct(v: Double): String   = f"$v%.2f%%"
  def nanos(v: Double): String = if (v >= 1e6) f"${v / 1e6}%.2f ms" else f"${v / 1e3}%.1f us"
}
