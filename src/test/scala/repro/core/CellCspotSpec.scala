package repro.core

import java.util.Random
import scala.collection.mutable
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration
import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._
import repro.{LiveSet, TestGen}
import repro.stream.EventStream

/** Replay validation of the continuous exact solutions: after *every* event
  * of randomized streams the reported burst score must equal the brute-force
  * snapshot optimum (Section IV-C correctness), in all three bound modes.
  */
class CellCspotSpec extends AnyFunSuite with TimeLimits {

  private def replay(objs: IndexedSeq[SpatialObj], cfg: SurgeConfig, mode: BoundMode): Unit = {
    val algo = new CellCspot(cfg, mode)
    val live = new LiveSet(cfg.windowMillis)
    EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
      live(e)
      val got = algo.onEvent(e)
      val exp = BruteForce.burstyPoint(live.objectsAt(e.at), e.at, cfg)
      (got, exp) match {
        case (None, None) => ()
        case (Some(g), Some(b)) =>
          assert(math.abs(g.score - b.score) < 1e-6,
                 s"$mode at ${e.kind}@${e.at}: got ${g.score}, brute ${b.score}")
          // the reported point's tracked scores are the true scores there
          val chk = BruteForce.scoreAt(live.objectsAt(e.at), e.at, cfg, g.x, g.y)
          assert(math.abs(chk.score - g.score) < 1e-6, s"$mode: stale candidate $g vs $chk")
        case (g, b) => fail(s"$mode: presence mismatch got=$g brute=$b at ${e.kind}@${e.at}")
      }
    }
  }

  for (mode <- Seq(BoundMode.Full, BoundMode.StaticOnly, BoundMode.NoBounds); seed <- 0 until 12)
    test(s"$mode matches brute force after every event (uniform), seed $seed") {
      val cfg = TestGen.cfg(windowMillis = 1000L, alpha = (seed % 10) / 10.0)
      replay(TestGen.stream(seed, 40), cfg, mode)
    }

  for (mode <- Seq(BoundMode.Full, BoundMode.StaticOnly, BoundMode.NoBounds); seed <- 0 until 8)
    test(s"$mode matches brute force after every event (clustered), seed $seed") {
      val cfg = TestGen.cfg(windowMillis = 1200L, alpha = 0.5)
      replay(TestGen.clusteredStream(seed, 45), cfg, mode)
    }

  for (mode <- Seq(BoundMode.Full, BoundMode.StaticOnly, BoundMode.NoBounds);
       alpha <- Seq(0.0, 0.5, 0.9); seed <- 0 until 3)
    test(s"$mode matches brute force after every event (tied, alpha=$alpha), seed $seed") {
      val cfg = TestGen.cfg(windowMillis = 3 * TestGen.TiedStep, alpha = alpha)
      replay(TestGen.tiedStream(seed, 45), cfg, mode)
    }

  // Corners on a lattice of eighths of a cell put rect edges on the
  // boundaries of its strips, where an edge counts in both strips.
  for (mode <- Seq(BoundMode.Full, BoundMode.StaticOnly); alpha <- Seq(0.0, 0.5, 0.9); seed <- 0 until 3)
    test(s"$mode matches brute force after every event (eighths lattice, alpha=$alpha), seed $seed") {
      val cfg = TestGen.cfg(windowMillis = 3 * TestGen.TiedStep, alpha = alpha)
      replay(TestGen.tiedStream(seed, 80, ext = 2, lattice = 8), cfg, mode)
    }

  // |W| = 1 s with weights in the hundreds puts scores near 1e6, where no
  // `w/|W|` is exact. A search that left its cell invalid would have the
  // query search it again for ever.
  for (alpha <- Seq(0.0, 0.5, 0.9); seed <- 0 until 2)
    test(s"every search leaves its cell valid at scores near 1e6, alpha=$alpha, seed $seed") {
      implicit val signaler: Signaler = ThreadSignaler
      val cfg  = TestGen.cfg(windowMillis = 1000L, alpha = alpha)
      val objs = TestGen.tiedStream(seed, 150, ext = 2, lattice = 8).map(o => o.copy(w = 37 * o.w))
      val run = Future {
        val algo = new CellCspot(cfg, BoundMode.Full)
        val live = new LiveSet(cfg.windowMillis)
        EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
          live(e)
          val got    = algo.onEvent(e).map(_.score)
          val before = algo.stats.searches
          assert(algo.query().map(_.score) == got && algo.stats.searches == before)
          val want = BruteForce.burstyPoint(live.objectsAt(e.at), e.at, cfg).map(_.score)
          assert(got.isDefined == want.isDefined)
          for (g <- got; w <- want) assert(math.abs(g - w) <= 1e-9 * math.max(1.0, w), s"at ${e.kind}@${e.at}: $g vs $w")
        }
        algo.stats.searches
      }
      failAfter(60.seconds)(assert(Await.result(run, Duration.Inf) > 0))
    }

  for (seed <- 0 until 6)
    test(s"non-unit rectangle sizes, seed $seed") {
      val cfg = TestGen.cfg(windowMillis = 1000L, alpha = 0.5, rectW = 1.7, rectH = 0.6)
      replay(TestGen.stream(seed, 35), cfg, BoundMode.Full)
    }

  test("Theorem 1: region with top-right corner at the bursty point scores the same") {
    val cfg  = TestGen.cfg(windowMillis = 1000L, alpha = 0.5)
    val objs = TestGen.stream(3, 40)
    val algo = new CellCspot(cfg, BoundMode.Full)
    val live = new LiveSet(cfg.windowMillis)
    EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
      live(e)
      algo.onEvent(e).foreach { p =>
        val region = cfg.regionOf(p.x, p.y)
        var fc = 0.0; var fp = 0.0
        live.objectsAt(e.at).foreach { o =>
          if (region.contains(o.x, o.y)) Win.of(o.t, e.at, cfg.windowMillis) match {
            case Win.Cur  => fc += cfg.delta(o.w)
            case Win.Past => fp += cfg.delta(o.w)
            case Win.Out  => ()
          }
        }
        assert(math.abs(cfg.burst(fc, fp) - p.score) < 1e-6)
      }
    }
  }

  test("CCS triggers far fewer searches than B-CCS on a clustered stream") {
    val cfg  = TestGen.cfg(windowMillis = 1500L, alpha = 0.5)
    val objs = TestGen.clusteredStream(11, 300)
    val ccs  = new CellCspot(cfg, BoundMode.Full)
    val bccs = new CellCspot(cfg, BoundMode.StaticOnly)
    EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
      ccs.onEvent(e); bccs.onEvent(e)
    }
    assert(ccs.stats.messages == bccs.stats.messages)
    assert(ccs.stats.searches < bccs.stats.searches,
           s"ccs=${ccs.stats.searches} bccs=${bccs.stats.searches}")
  }

  for (mode <- Seq(BoundMode.Full, BoundMode.StaticOnly, BoundMode.NoBounds))
    test(s"$mode counts the same stats through process+query as through onEvent") {
      val cfg   = TestGen.cfg(windowMillis = 1200L, alpha = 0.5)
      val whole = new CellCspot(cfg, mode)
      val split = new CellCspot(cfg, mode)
      var searching = 0L
      EventStream.fromObjects(TestGen.clusteredStream(4, 60), cfg.windowMillis).foreach { e =>
        whole.onEvent(e)
        val before = split.stats.searches
        split.process(e)
        assert(split.stats.searches == before, s"$mode searched inside process")
        split.query()
        if (split.stats.searches > before) searching += 1
      }
      def counts(s: CspotStats) = (s.messages, s.messagesWithSearch, s.searches, s.sweptRects)
      assert(searching > 0)
      assert(split.stats.messagesWithSearch == searching)
      assert(counts(split.stats) == counts(whole.stats))
    }

  for (mode <- Seq(BoundMode.Full, BoundMode.StaticOnly, BoundMode.NoBounds))
    test(s"$mode: a second query() makes no search and returns the same point") {
      val cfg  = TestGen.cfg(windowMillis = 3 * TestGen.TiedStep, alpha = 0.5)
      val algo = new CellCspot(cfg, mode)
      EventStream.fromObjects(TestGen.tiedStream(1, 60), cfg.windowMillis).foreach { e =>
        val first  = algo.onEvent(e)
        val before = algo.stats.searches
        assert(algo.query() == first, s"$mode at ${e.kind}@${e.at}")
        assert(algo.stats.searches == before, s"$mode searched again at ${e.kind}@${e.at}")
      }
      assert(algo.stats.searches > 0)
    }

  test("an object past the grid's index range is rejected, not looped over") {
    implicit val signaler: Signaler = ThreadSignaler
    val algo = new CellCspot(TestGen.cfg(), BoundMode.Full)
    // finite, so it passes ingress, but x / b saturates toLong
    val run = Future(algo.process(Event(SpatialObj(0, 1.0, 1e300, 0.0, 1000L), EventKind.New, 1000L)))
    failAfter(5.seconds) {
      assertThrows[IllegalArgumentException](Await.result(run, Duration.Inf))
    }
  }

  test("empty structure reports no bursty point and survives queries") {
    val algo = new CellCspot(TestGen.cfg(), BoundMode.Full)
    assert(algo.query().isEmpty)
  }

  test("structure drains to empty after all objects expire") {
    val cfg  = TestGen.cfg(windowMillis = 100L)
    val algo = new CellCspot(cfg, BoundMode.Full)
    val objs = TestGen.stream(5, 20, span = 300L)
    EventStream.fromObjects(objs, cfg.windowMillis).foreach(algo.onEvent)
    assert(algo.cellCount == 0)
    assert(algo.query().isEmpty)
  }

  // Cells are column stores in arrival order. These streams leave that
  // order: synthetic inserts and removals of any rect, re-inserts of a
  // removed id, Grown and Expired in random order, some of them naming the
  // rect by an equal copy, and enough churn in a 2×2 area (every rect in
  // every cell) to pack and grow the columns.
  for (seed <- 0 until 6)
    test(s"cell store: out-of-order inserts, removals, Grown and Expired, seed $seed") {
      val cfg  = TestGen.cfg(windowMillis = 1000L, alpha = (seed % 3) * 0.4)
      val now  = 10000L
      val algo = new CellCspot(cfg, BoundMode.Full)
      val rng  = new Random(seed)
      val cur  = mutable.LinkedHashMap.empty[Long, SpatialObj]
      val past = mutable.LinkedHashMap.empty[Long, SpatialObj]
      val gone = mutable.ArrayBuffer.empty[SpatialObj]
      def pick(m: mutable.LinkedHashMap[Long, SpatialObj]): SpatialObj = m.valuesIterator.drop(rng.nextInt(m.size)).next()
      def named(o: SpatialObj): SpatialObj = if (rng.nextInt(4) == 0) o.copy() else o
      // Rect `o` becomes (in)visible while the clock stands still, in the window it is in.
      def synthetic(o: SpatialObj, insert: Boolean, past: Boolean): Unit = {
        val d = if (insert) cfg.delta(o.w) else -cfg.delta(o.w)
        if (past) algo.update(o, 0.0, d) else algo.update(o, d, 0.0)
      }
      def insert(o: SpatialObj, isPast: Boolean): Unit = {
        synthetic(o, insert = true, past = isPast)
        (if (isPast) past else cur)(o.id) = o
      }
      var next = 0L
      for (step <- 0 until 400) {
        val live = cur.size + past.size
        (if (live >= 30) 4 + rng.nextInt(2) else rng.nextInt(6)) match {
          case 0 | 1 =>
            insert(SpatialObj(next, 0.5 + rng.nextDouble(), 2 * rng.nextDouble(), 2 * rng.nextDouble(), now),
                   rng.nextInt(3) == 0)
            next += 1
          case 2 if gone.nonEmpty =>
            insert(gone.remove(rng.nextInt(gone.size)), rng.nextBoolean())
          case 3 if cur.nonEmpty =>
            val o = pick(cur)
            algo.process(Event(named(o), EventKind.Grown, now))
            cur.remove(o.id); past(o.id) = o
          case 4 if past.nonEmpty =>
            val o = pick(past)
            algo.process(Event(named(o), EventKind.Expired, now))
            past.remove(o.id); gone += o
          case 5 if live > 0 =>
            val isPast = cur.isEmpty || (past.nonEmpty && rng.nextBoolean())
            val o      = pick(if (isPast) past else cur)
            synthetic(named(o), insert = false, past = isPast)
            (if (isPast) past else cur).remove(o.id); gone += o
          case _ => ()
        }
        val objs = (cur.valuesIterator.map(_.copy(t = now)) ++
                    past.valuesIterator.map(_.copy(t = now - cfg.windowMillis))).toIndexedSeq
        (algo.query(), BruteForce.burstyPoint(objs, now, cfg)) match {
          case (None, None) => ()
          case (Some(g), Some(b)) =>
            assert(math.abs(g.score - b.score) < 1e-6, s"step $step: got ${g.score}, brute ${b.score}")
            val chk = BruteForce.scoreAt(objs, now, cfg, g.x, g.y)
            assert(math.abs(chk.score - g.score) < 1e-6, s"step $step: stale candidate $g vs $chk")
          case (g, b) => fail(s"step $step: presence mismatch got=$g brute=$b")
        }
        val (px, py) = (3 * rng.nextDouble(), 3 * rng.nextDouble())
        assert(algo.rectsCovering(px, py).map(_.id).toSet == BruteForce.coverIds(objs, now, cfg, px, py),
               s"step $step: rectsCovering($px, $py)")
      }
      assert(next > 60 && algo.cellCount > 0)
    }

  // A column store that fills without a hole grows without moving a rect;
  // one with holes packs first. Either way a sweep after each doubling sees
  // exactly the live rects.
  for (holes <- Seq(false, true))
    test(s"cell store: columns grown through several doublings sweep like brute force, holes = $holes") {
      val cfg   = TestGen.cfg(windowMillis = 1000L, alpha = 0.5)
      val now   = 10000L
      val box   = Box(1.0, 1.0, 2.0, 2.0)
      val rng   = new Random(if (holes) 2 else 1)
      val cell  = new CellRects
      val ws    = new SweepLine.Workspace
      val live  = mutable.ArrayBuffer.empty[SpatialObj]
      var grows = 0
      for (i <- 0 until 400) {
        val isPast = rng.nextInt(3) == 0
        val o = SpatialObj(i.toLong, 1.0 + rng.nextInt(3), 2 * rng.nextDouble(), 2 * rng.nextDouble(),
                           if (isPast) now - cfg.windowMillis else now)
        val cap = cell.capacity
        cell.add(o, cfg.delta(o.w), isPast)
        live += o
        if (holes && i % 3 == 2) cell.remove(live.remove(0))
        if (cell.capacity > cap) {
          grows += 1
          val got  = cell.sweep(box, cfg, ws, Array(Double.PositiveInfinity), Double.NegativeInfinity, 0)
          val want = BruteForce.burstyPoint(live, now, cfg, Some(box)).get
          assert(got.rectCount == live.size && cell.size == live.size)
          assert(math.abs(got.point.get.score - want.score) < 1e-9, s"after rect $i: $got vs $want")
          val chk = BruteForce.scoreAt(live, now, cfg, got.point.get.x, got.point.get.y)
          assert(math.abs(chk.score - want.score) < 1e-9, s"after rect $i: stale point ${got.point}")
        }
      }
      assert(grows >= 6 && cell.live(0).toSeq == live.toSeq)
    }

  // kCCS's layers read one store through its level column: a sweep at layer
  // i reads exactly the live rects of level > i, across packs and doublings
  // between level writes, and a store that never gets a level reads every
  // rect at every layer.
  for (holes <- Seq(false, true))
    test(s"cell store: a sweep at layer i reads only the rects of level > i, holes = $holes") {
      val k     = 4
      val cfg   = TestGen.cfg(windowMillis = 1000L, alpha = 0.5)
      val now   = 10000L
      val box   = Box(1.0, 1.0, 2.0, 2.0)
      val rng   = new Random(if (holes) 4 else 3)
      val cell  = new CellRects
      val plain = new CellRects
      val ws    = new SweepLine.Workspace
      val live  = mutable.ArrayBuffer.empty[SpatialObj]
      val level = mutable.LongMap.empty[Int]
      var grows, writes = 0
      def check(rects: CellRects, in: collection.Seq[SpatialObj], layer: Int, at: String): Unit = {
        val got  = rects.sweep(box, cfg, ws, Array(Double.PositiveInfinity), Double.NegativeInfinity, layer)
        val want = BruteForce.burstyPoint(in, now, cfg, Some(box)).fold(0.0)(_.score)
        assert(got.rectCount == in.size && rects.live(layer).toSeq == in.toSeq, s"$at: ${got.rectCount} rects")
        assert(math.abs(got.point.fold(0.0)(_.score) - want) < 1e-9, s"$at: $got vs $want")
      }
      for (i <- 0 until 400) {
        val isPast = rng.nextInt(3) == 0
        val o = SpatialObj(i.toLong, 1.0 + rng.nextInt(3), 2 * rng.nextDouble(), 2 * rng.nextDouble(),
                           if (isPast) now - cfg.windowMillis else now)
        val cap = cell.capacity
        cell.add(o, cfg.delta(o.w), isPast)
        plain.add(o, cfg.delta(o.w), isPast)
        live += o
        if (holes && i % 3 == 2) {
          val r = live.remove(0)
          cell.remove(r); plain.remove(r); level -= r.id
        }
        if (rng.nextInt(3) == 0) {
          val r = live(rng.nextInt(live.size))
          level(r.id) = 1 + rng.nextInt(k)
          cell.setLevel(r, level(r.id))
          writes += 1
        }
        if (cell.capacity > cap || i % 37 == 0) {
          if (cell.capacity > cap) grows += 1
          for (layer <- 0 until k) {
            check(cell, live.filter(r => level.getOrElse(r.id, k) > layer), layer, s"after rect $i, layer $layer")
            check(plain, live, layer, s"after rect $i, layer $layer, no levels")
          }
        }
      }
      assert(grows >= 6 && writes > 100 && cell.lv != null && plain.lv == null)
    }

  test("rectsCovering finds exactly the covering live rects") {
    val cfg  = TestGen.cfg(windowMillis = 1000L)
    val objs = TestGen.stream(7, 30)
    val algo = new CellCspot(cfg, BoundMode.Full)
    val live = new LiveSet(cfg.windowMillis)
    var checked = 0
    EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
      live(e); algo.onEvent(e)
      val p = (e.obj.x + 0.1, e.obj.y + 0.1)
      val got = algo.rectsCovering(p._1, p._2).map(_.id).toSet
      val exp = BruteForce.coverIds(live.objectsAt(e.at), e.at, cfg, p._1, p._2)
      assert(got == exp); checked += 1
    }
    assert(checked > 0)
  }
}
