package repro.core

import scala.collection.mutable
import org.scalatest.funsuite.AnyFunSuite
import repro.{LiveSet, TestGen}
import repro.stream.EventStream

class GapSurgeSpec extends AnyFunSuite {

  /** Reference per-cell scores computed from scratch. */
  private def refCellScores(live: Iterable[SpatialObj], now: Long, cfg: SurgeConfig,
                            offX: Double, offY: Double): Map[Long, Double] = {
    val grid = new Grid(cfg.rectW, cfg.rectH, offX, offY)
    val fc = mutable.LongMap.empty[Double].withDefaultValue(0.0)
    val fp = mutable.LongMap.empty[Double].withDefaultValue(0.0)
    live.foreach { o =>
      val k = grid.cellOf(o.x, o.y)
      Win.of(o.t, now, cfg.windowMillis) match {
        case Win.Cur  => fc(k) += cfg.delta(o.w)
        case Win.Past => fp(k) += cfg.delta(o.w)
        case Win.Out  => ()
      }
    }
    (fc.keySet ++ fp.keySet).map(k => k -> cfg.burst(fc(k), fp(k))).toMap
  }

  for (seed <- 0 until 15)
    test(s"GAPS top cell matches reference recomputation after every event, seed $seed") {
      val cfg  = TestGen.cfg(windowMillis = 1000L, alpha = (seed % 10) / 10.0)
      val gaps = new GapSurge(cfg)
      val live = new LiveSet(cfg.windowMillis)
      EventStream.fromObjects(TestGen.stream(seed, 60), cfg.windowMillis).foreach { e =>
        live(e)
        val got = gaps.onEvent(e)
        val ref = refCellScores(live.objectsAt(e.at), e.at, cfg, 0, 0)
        if (ref.isEmpty) assert(got.isEmpty)
        else {
          val best = ref.values.max
          assert(math.abs(got.get.score - best) < 1e-6,
                 s"got ${got.get.score}, expected $best")
        }
      }
    }

  for (seed <- 0 until 10)
    test(s"GAPS approximation bound (Theorem 3): S(cell) >= (1-a)/4 * S(opt), seed $seed") {
      val alpha = (seed % 10) / 10.0
      val cfg   = TestGen.cfg(windowMillis = 1000L, alpha = alpha)
      val gaps  = new GapSurge(cfg)
      val exact = new CellCspot(cfg, BoundMode.Full)
      EventStream.fromObjects(TestGen.clusteredStream(seed, 80), cfg.windowMillis).foreach { e =>
        gaps.process(e)
        val opt = exact.onEvent(e).map(_.score).getOrElse(0.0)
        val app = gaps.top.map(_.score).getOrElse(0.0)
        assert(app >= (1 - alpha) / 4.0 * opt - 1e-6, s"ratio violated: $app vs opt $opt")
      }
    }

  for (seed <- 0 until 10)
    test(s"MGAPS dominates GAPS and respects the Theorem 4 bound, seed $seed") {
      val alpha = 0.5
      val cfg   = TestGen.cfg(windowMillis = 1000L, alpha = alpha)
      val gaps  = new GapSurge(cfg)
      val mgaps = new MGapSurge(cfg)
      val exact = new CellCspot(cfg, BoundMode.Full)
      EventStream.fromObjects(TestGen.clusteredStream(100 + seed, 70), cfg.windowMillis).foreach { e =>
        gaps.process(e); mgaps.process(e)
        val opt = exact.onEvent(e).map(_.score).getOrElse(0.0)
        val g   = gaps.top.map(_.score).getOrElse(0.0)
        val m   = mgaps.top.map(_.score).getOrElse(0.0)
        assert(m >= g - 1e-9, "MGAPS must be at least as good as its grid-1 instance")
        assert(m >= (1 - alpha) / 4.0 * opt - 1e-6)
        assert(m <= opt + 1e-6, "an axis-aligned a×b cell can never beat the optimum")
      }
    }

  /** The reference answer: every grid's `top`, then `maxBy` (the first maximum wins). */
  private def firstBestOfGrids(m: MGapSurge): Option[CellResult] = {
    val tops = m.grids.flatMap(_.top)
    if (tops.isEmpty) None else Some(tops.maxBy(_.score))
  }

  for (seed <- 0 until 10)
    test(s"MGAPS top equals the first best of the four grids' answers after every event, seed $seed") {
      // Integer weights on a half-unit lattice: the shifted grids' tops tie often.
      val cfg   = TestGen.cfg(windowMillis = 5 * TestGen.TiedStep)
      val mgaps = new MGapSurge(cfg)
      assert(mgaps.top.isEmpty)
      var ties = 0
      EventStream.fromObjects(TestGen.tiedStream(seed, 150), cfg.windowMillis).foreach { e =>
        mgaps.process(e)
        val want = firstBestOfGrids(mgaps)
        assert(mgaps.top == want)
        want.foreach(w => if (mgaps.grids.count(_.top.exists(_.score == w.score)) > 1) ties += 1)
      }
      assert(mgaps.top.isEmpty, "the stream drains to empty")
      assert(ties > 0, "the stream should make the grids tie")
    }

  test("MGAPS reports the lowest-indexed grid when two grids' tops tie") {
    val cfg = TestGen.cfg() // 1×1 cells; grid 1 is shifted by 0.5 in x, grid 2 by 0.5 in y
    // A and B share a cell only in grid 1, C and D only in grid 2; every other
    // cell holds one object, so grids 1 and 2 tie above grids 0 and 3.
    val a = SpatialObj(0, 1.0, 0.9, 0.4, 1000L)
    val b = SpatialObj(1, 1.0, 1.1, 0.6, 1000L)
    val c = SpatialObj(2, 1.0, 10.4, 10.9, 1000L)
    val d = SpatialObj(3, 1.0, 10.6, 11.1, 1000L)
    for (order <- Seq(Seq(a, b, c, d), Seq(c, d, a, b))) {
      val mgaps = new MGapSurge(cfg)
      order.foreach(o => mgaps.process(Event(o, EventKind.New, 1000L)))
      val scores = mgaps.grids.map(_.top.get.score)
      assert(scores(1) == scores(2) && scores(1) > scores(0) && scores(1) > scores(3))
      assert(mgaps.top == mgaps.grids(1).top)
      assert(mgaps.top.get.box == Box(0.5, 0.0, 1.5, 1.0))
    }
  }

  test("Lemma 7 tightness construction achieves exactly (1-alpha)/4") {
    // Figure 11: four current objects around the grid corner (0,0) so that a
    // region covering all four exists, while each grid cell holds one current
    // and one far-away past object → cell score 1−α, optimum 4.
    val alpha = 0.3
    val cfg   = SurgeConfig(1.0, 1.0, 3600000L, alpha) // |W|=1h → delta(w)=w
    val now   = 10 * 3600000L
    val curT  = now - 1000
    val pastT = now - 3600000L - 1000
    val objs = IndexedSeq(
      SpatialObj(0, 1, -0.1, -0.1, curT), SpatialObj(1, 1, -0.1, 0.1, curT),
      SpatialObj(2, 1, 0.1, -0.1, curT), SpatialObj(3, 1, 0.1, 0.1, curT),
      SpatialObj(4, 1, -0.9, -0.9, pastT), SpatialObj(5, 1, -0.9, 0.9, pastT),
      SpatialObj(6, 1, 0.9, -0.9, pastT), SpatialObj(7, 1, 0.9, 0.9, pastT),
    )
    val opt = BruteForce.burstyPoint(objs, now, cfg).get.score
    assert(math.abs(opt - 4.0) < 1e-9)
    val ref = objs.groupBy(o => (math.floor(o.x).toLong, math.floor(o.y).toLong)).map {
      case (_, os) =>
        val fc = os.filter(_.t == curT).map(_.w).sum
        val fp = os.filter(_.t == pastT).map(_.w).sum
        cfg.burst(fc, fp)
    }
    assert(math.abs(ref.max - (1 - alpha)) < 1e-9)
    assert(math.abs(ref.max / opt - (1 - alpha) / 4.0) < 1e-9)
  }

  test("GAPS cells drain to empty when everything expires") {
    val cfg  = TestGen.cfg(windowMillis = 100L)
    val gaps = new GapSurge(cfg)
    EventStream.fromObjects(TestGen.stream(9, 30, span = 400L), cfg.windowMillis)
      .foreach(gaps.process)
    assert(gaps.cellCount == 0 && gaps.top.isEmpty)
  }

  test("GAPS topK returns descending, disjoint cells") {
    val cfg  = TestGen.cfg(windowMillis = 2000L)
    val gaps = new GapSurge(cfg)
    EventStream.fromObjects(TestGen.stream(13, 80), cfg.windowMillis, drainTail = false)
      .foreach(gaps.process)
    val top = gaps.topK(5)
    assert(top.nonEmpty)
    top.sliding(2).foreach {
      case Seq(a, b) => assert(a.score >= b.score - 1e-9)
      case _         => ()
    }
    for (i <- top.indices; j <- top.indices if i < j)
      assert(!top(i).box.overlapsOpen(top(j).box))
  }

  test("MGAPS topK returns at most k non-overlapping cells across grids") {
    val cfg   = TestGen.cfg(windowMillis = 2000L)
    val mgaps = new MGapSurge(cfg)
    EventStream.fromObjects(TestGen.clusteredStream(14, 90), cfg.windowMillis, drainTail = false)
      .foreach(mgaps.process)
    val top = mgaps.topK(4)
    assert(top.nonEmpty && top.length <= 4)
    for (i <- top.indices; j <- top.indices if i < j)
      assert(!top(i).box.overlapsOpen(top(j).box))
    top.sliding(2).foreach {
      case Seq(a, b) => assert(a.score >= b.score - 1e-9)
      case _         => ()
    }
  }

  test("offset grids classify boundary objects consistently") {
    val cfg  = TestGen.cfg()
    val gaps = new GapSurge(cfg, 0.5, 0.5)
    val o    = SpatialObj(0, 2.0, 0.5, 0.5, 1000L)
    gaps.process(Event(o, EventKind.New, 1000L))
    val t = gaps.top.get
    assert(t.box.contains(o.x, o.y))
  }
}
