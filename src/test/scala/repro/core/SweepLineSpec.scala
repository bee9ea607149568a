package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen

class SweepLineSpec extends AnyFunSuite {
  private val W   = 1000L
  private val big = Box(-10, -10, 30, 30) // encloses every test rect fully

  test("empty input yields no point") {
    val r = SweepLine.burstyPoint(Nil, big, 1000L, TestGen.cfg())
    assert(r.point.isEmpty && r.rectCount == 0)
  }

  test("a single current rect yields its own weight as score") {
    val cfg = TestGen.cfg(windowMillis = 3600000L) // |W| = 1h → delta(w) = w
    val o   = SpatialObj(0, 5.0, 2.0, 3.0, 900000L)
    val r   = SweepLine.burstyPoint(Seq(o), big, 1000000L, cfg)
    val p   = r.point.get
    assert(math.abs(p.score - 5.0) < 1e-9)
    assert(cfg.rectBox(o).contains(p.x, p.y))
  }

  test("a rect only in the past window scores zero") {
    val cfg = TestGen.cfg(windowMillis = 3600000L)
    val o   = SpatialObj(0, 5.0, 2.0, 3.0, 900000L)
    val r   = SweepLine.burstyPoint(Seq(o), big, 900000L + 2 * 3600000L - 1, cfg)
    assert(math.abs(r.point.get.score - 0.0) < 1e-9)
  }

  test("expired rects are ignored entirely") {
    val cfg = TestGen.cfg(windowMillis = 100L)
    val o   = SpatialObj(0, 5.0, 2.0, 3.0, 0L)
    val r   = SweepLine.burstyPoint(Seq(o), big, 10000L, cfg)
    assert(r.point.isEmpty && r.rectCount == 0)
  }

  test("two overlapping current rects stack") {
    val cfg = TestGen.cfg(windowMillis = 3600000L)
    val now = 1000000L
    val os = Seq(SpatialObj(0, 2.0, 0.0, 0.0, now - 10), SpatialObj(1, 3.0, 0.5, 0.5, now - 20))
    val p = SweepLine.burstyPoint(os, big, now, cfg).point.get
    assert(math.abs(p.score - 5.0) < 1e-9)
  }

  test("past-window overlap reduces the burst score via the alpha term") {
    val cfg = TestGen.cfg(windowMillis = 3600000L, alpha = 0.5)
    val now = 10 * 3600000L
    val cur  = SpatialObj(0, 4.0, 0.0, 0.0, now - 100)
    val past = SpatialObj(1, 4.0, 0.0, 0.0, now - 3600000L - 100)
    val p = SweepLine.burstyPoint(Seq(cur, past), big, now, cfg).point.get
    // fc = 4, fp = 4 → S = 0.5·0 + 0.5·4 = 2
    assert(math.abs(p.score - 2.0) < 1e-9)
  }

  /** Random snapshot `seed`: its config, time and objects. */
  private def randomSnapshot(seed: Int): (SurgeConfig, Long, IndexedSeq[SpatialObj]) = {
    val rng = new Random(seed)
    val cfg = TestGen.cfg(
      windowMillis = W, alpha = rng.nextInt(10) / 10.0,
      rectW = 0.5 + rng.nextDouble(), rectH = 0.5 + rng.nextDouble())
    val now = 20000L
    (cfg, now, TestGen.snapshot(seed, 3 + rng.nextInt(50), now, W))
  }

  // Integer weights with |W| = 1 h and alpha in {0, 0.5} keep every sum and
  // score exact, so ties between candidates are real ties.
  private def tiedSnapshot(seed: Int, alpha: Double): (SurgeConfig, Long, IndexedSeq[SpatialObj]) = {
    val hour = 3600000L
    val cfg  = TestGen.cfg(windowMillis = hour, alpha = alpha)
    val now  = 10 * hour
    val rng  = new Random(seed)
    val objs = (0 until 40).map { i =>
      SpatialObj(i.toLong, 1.0 + rng.nextInt(3), rng.nextInt(9) / 2.0, rng.nextInt(9) / 2.0,
                 now - rng.nextInt(5) * hour / 2)
    }
    (cfg, now, objs)
  }

  for (seed <- 0 until 40)
    test(s"matches brute force on a random snapshot, seed $seed") {
      val (cfg, now, objs) = randomSnapshot(seed)
      val sw = SweepLine.burstyPoint(objs, big, now, cfg).point
      val bf = BruteForce.burstyPoint(objs, now, cfg)
      assert(sw.isDefined == bf.isDefined)
      for (s <- sw; b <- bf) {
        assert(math.abs(s.score - b.score) < 1e-9, s"sweep=${s.score} brute=${b.score}")
        // self-consistency: the reported point really has that score
        val check = BruteForce.scoreAt(objs, now, cfg, s.x, s.y)
        assert(math.abs(check.score - s.score) < 1e-9)
        assert(math.abs(check.fc - s.fc) < 1e-9 && math.abs(check.fp - s.fp) < 1e-9)
      }
    }

  for (seed <- 0 until 25)
    test(s"box-restricted search matches restricted brute force, seed $seed") {
      val rng  = new Random(1000 + seed)
      val cfg  = TestGen.cfg(windowMillis = W, alpha = 0.5)
      val now  = 20000L
      val objs = TestGen.snapshot(seed, 30, now, W)
      val x0 = rng.nextDouble() * 4; val y0 = rng.nextDouble() * 4
      val box = Box(x0, y0, x0 + 1.0, y0 + 1.0)
      val sw = SweepLine.burstyPoint(objs, box, now, cfg).point
      val bf = BruteForce.burstyPoint(objs, now, cfg, Some(box))
      assert(sw.isDefined == bf.isDefined)
      for (s <- sw; b <- bf) {
        assert(box.contains(s.x, s.y), s"point outside box: $s")
        assert(math.abs(s.score - b.score) < 1e-9, s"sweep=${s.score} brute=${b.score}")
      }
    }

  // Bench searches sweep 100–200 rects (up to ~800 candidate xs); the random
  // snapshots above stay under 256.
  for (n <- Seq(120, 200); alpha <- Seq(0.0, 0.5, 0.9))
    test(s"matches brute force at bench density, $n rects, alpha $alpha") {
      val rng = new Random(7 * n)
      val cfg = TestGen.cfg(windowMillis = W, alpha = alpha,
                            rectW = 0.3 + 0.4 * rng.nextDouble(), rectH = 0.3 + 0.4 * rng.nextDouble())
      val now  = 20000L
      val objs = TestGen.snapshot(n, 2 * n, now, W, ext = 1.0)
        .filter(o => Win.of(o.t, now, W) != Win.Out).take(n)
      val r = SweepLine.burstyPoint(objs, big, now, cfg)
      assert(r.rectCount == n)
      val s = r.point.get
      val b = BruteForce.burstyPoint(objs, now, cfg).get
      assert(math.abs(s.score - b.score) < 1e-9, s"sweep=${s.score} brute=${b.score}")
      val check = BruteForce.scoreAt(objs, now, cfg, s.x, s.y)
      assert(math.abs(check.fc - s.fc) < 1e-9 && math.abs(check.fp - s.fp) < 1e-9)
    }

  // The cases above keep `w/|W|` exact or draw continuous weights. Here
  // integer weights over a 7 s or a 5 h window make every `w/|W|` inexact,
  // so sums drift with their order. Every rect meets the cell-sized box
  // `cell`; half sit on a lattice of half-rect steps, so some edges lie
  // exactly on the box's edges (one-leaf ranges at both ends). The interior
  // box is 2.5 rects wide and holds rects that contain neither of its
  // x-edges, which need two steps.
  for ((n, window) <- Seq(120 -> 7000L, 200 -> 5 * 3600000L); alpha <- Seq(0.0, 0.5, 0.9))
    test(s"matches brute force with inexact weights, $n rects, |W| = $window ms, alpha $alpha") {
      val rng  = new Random(n + window)
      // Sizes in 64ths keep the lattice, and so its edges, exact.
      val cfg  = TestGen.cfg(windowMillis = window, alpha = alpha,
                             rectW = (20 + rng.nextInt(25)) / 64.0, rectH = (20 + rng.nextInt(25)) / 64.0)
      val (b, a) = (cfg.rectW, cfg.rectH)
      val now  = 10 * window
      val cell = Box(1.0, 2.0, 1.0 + b, 2.0 + a)
      val objs = (0 until n).map { i =>
        val (x, y) =
          if (i % 2 == 0) (cell.x0 + b * (rng.nextInt(5) - 2) / 2, cell.y0 + a * (rng.nextInt(5) - 2) / 2)
          else (cell.x0 + b * (2 * rng.nextDouble() - 1), cell.y0 + a * (2 * rng.nextDouble() - 1))
        SpatialObj(i.toLong, 1.0 + rng.nextInt(100), x, y, now - (rng.nextDouble() * 2 * window).toLong)
      }
      val interior = Box(cell.x0 - 0.75 * b, cell.y0 - 0.75 * a, cell.x0 + 1.75 * b, cell.y0 + 1.75 * a)
      for (box <- Seq(cell, interior)) {
        val r = SweepLine.burstyPoint(objs, box, now, cfg)
        assert(r.rectCount == n, s"box $box")
        val s = r.point.get
        val want = BruteForce.burstyPoint(objs, now, cfg, Some(box)).get
        val tol  = 1e-9 * math.max(1.0, want.score)
        assert(box.contains(s.x, s.y), s"point outside $box: $s")
        assert(math.abs(s.score - want.score) <= tol, s"box $box: sweep=${s.score} brute=${want.score}")
        val check = BruteForce.scoreAt(objs, now, cfg, s.x, s.y)
        assert(math.abs(check.fc - s.fc) <= 1e-9 * math.max(1.0, check.fc) &&
                 math.abs(check.fp - s.fp) <= 1e-9 * math.max(1.0, check.fp), s"box $box: $s vs $check")
      }
    }

  // A cell keeps one bound per eighth of its height. A sweep rewrites the
  // bounds of the strips it sweeps (the run from the first to the last above
  // `t`) and leaves the others alone; each rewritten bound must cover the
  // brute-force best over its closed strip. Corners on a lattice of eighths
  // of the rect put edges on the strip boundaries, and integer weights make
  // ties.
  for (seed <- 0 until 20)
    test(s"a confined sweep bounds every strip it sweeps, seed $seed") {
      val rng  = new Random(300 + seed)
      val cfg  = TestGen.cfg(windowMillis = W, alpha = rng.nextInt(10) / 10.0)
      val now  = 20000L
      val box  = Box(1.0, 1.0, 2.0, 2.0)
      val objs = (0 until 10 + rng.nextInt(40)).map { i =>
        SpatialObj(i.toLong, 1.0 + rng.nextInt(3), rng.nextInt(17) / 8.0, rng.nextInt(17) / 8.0,
                   now - 1 - rng.nextInt(2) * W)
      }
      val cell = new CellRects
      objs.foreach(o => cell.add(o, cfg.delta(o.w), Win.of(o.t, now, W) == Win.Past))
      val ws = new SweepLine.Workspace
      def strip(s: Int) = Box(box.x0, box.y0 + s / 8.0, box.x1, box.y0 + (s + 1) / 8.0)
      def brute(b: Box) = BruteForce.burstyPoint(objs, now, cfg, Some(b)).fold(0.0)(_.score)

      val bounds = Array.fill(8)(Double.PositiveInfinity)
      val whole  = cell.sweep(box, cfg, ws, bounds, Double.NegativeInfinity, 0)
      assert(whole.strips == 8 && whole.rectCount == objs.size)
      assert(math.abs(whole.point.get.score - brute(box)) < 1e-9)
      for (s <- 0 until 8)
        assert(bounds(s) >= brute(strip(s)) - 1e-9 && bounds(s) <= whole.point.get.score + 1e-9,
               s"strip $s: bound ${bounds(s)}, brute ${brute(strip(s))}")

      // Mark a run of strips stale and sweep again above a threshold that
      // every fresh bound reaches.
      val sa    = rng.nextInt(8)
      val sb    = sa + rng.nextInt(8 - sa)
      val t     = bounds.max
      val stale = bounds.clone()
      (sa to sb).foreach(stale(_) = t + 1)
      val part = cell.sweep(box, cfg, ws, stale, t, 0)
      assert(part.strips == sb - sa + 1)
      for (s <- 0 until 8) {
        if (s < sa || s > sb) assert(stale(s) == bounds(s), s"strip $s was not swept")
        else assert(stale(s) >= brute(strip(s)) - 1e-9, s"strip $s: bound ${stale(s)}, brute ${brute(strip(s))}")
      }
      val run = Box(box.x0, box.y0 + sa / 8.0, box.x1, box.y0 + (sb + 1) / 8.0)
      for (p <- part.point) {
        val check = BruteForce.scoreAt(objs, now, cfg, p.x, p.y)
        assert(math.abs(check.score - p.score) < 1e-9)
        assert(p.score >= brute(run) - 1e-9 && p.score <= brute(box) + 1e-9, s"run $sa..$sb: $p")
      }
      assert(part.point.isDefined || brute(run) == 0.0)
    }

  /** Sorted distinct values plus the midpoint of each consecutive pair. */
  private def candidates(edges: Seq[Double]): Seq[Double] = {
    val e = edges.distinct.sorted
    e ++ e.sliding(2).collect { case Seq(a, b) => (a + b) / 2 }
  }

  // Continuous detectors' search counts depend on which maximiser the sweep
  // reports.
  for (seed <- 0 until 20; alpha <- Seq(0.0, 0.5))
    test(s"reports the topmost, then leftmost, maximiser on tied snapshots, seed $seed, alpha $alpha") {
      val (cfg, now, objs) = tiedSnapshot(seed, alpha)
      val live = objs.filter(o => Win.of(o.t, now, cfg.windowMillis) != Win.Out)
      val xs   = candidates(live.flatMap(o => Seq(o.x, o.x + cfg.rectW)))
      val ys   = candidates(live.flatMap(o => Seq(o.y, o.y + cfg.rectH)))
      val all  = for (y <- ys; x <- xs) yield BruteForce.scoreAt(live, now, cfg, x, y)
      val top  = all.map(_.score).max
      val want = all.filter(_.score == top).minBy(p => (-p.y, p.x))
      assert(SweepLine.burstyPoint(objs, big, now, cfg).point.contains(want))
    }

  // The core as `CellCspot` feeds it: live rects at scattered positions of
  // the columns (every other one empty), both orders built here, and one
  // workspace reused across every case. The `Iterable` path gathers the
  // same rects in the same order, so the two must agree exactly.
  private val ws = new SweepLine.Workspace
  private val snapshots =
    (0 until 40).map(s => s"random snapshot, seed $s" -> randomSnapshot(s)) ++
      (for (s <- 0 until 20; a <- Seq(0.0, 0.5)) yield s"tied snapshot, seed $s, alpha $a" -> tiedSnapshot(s, a))
  for ((name, (cfg, now, objs)) <- snapshots)
    test(s"pre-ordered columns sweep like the Iterable path, $name") {
      val live = objs.filter(o => Win.of(o.t, now, cfg.windowMillis) != Win.Out)
      val cols = new SweepLine.Columns(2 * live.size + 1)
      live.indices.foreach { i =>
        val o = live(i)
        cols.set(2 * i + 1, o, cfg.delta(o.w), Win.of(o.t, now, cfg.windowMillis) == Win.Past)
      }
      val pos = live.indices.map(2 * _ + 1)
      cols.byX = pos.sortBy(cols.xs(_)).toArray
      cols.byY = pos.sortBy(cols.ys(_)).toArray
      cols.ordered = live.size
      for (box <- Seq(big, Box(1.0, 1.5, 2.0, 2.5))) {
        val core = SweepLine.sweep(cols, box, cfg, ws)
        val iter = SweepLine.burstyPoint(objs, box, now, cfg)
        assert(core == iter, s"box $box")
      }
    }

  test("rectCount reports only live rects intersecting the box") {
    val cfg  = TestGen.cfg(windowMillis = 1000L)
    val now  = 10000L
    val objs = Seq(
      SpatialObj(0, 1, 0, 0, now - 10),   // current, inside
      SpatialObj(1, 1, 25, 25, now - 10), // current, outside big2
      SpatialObj(2, 1, 0, 0, now - 5000), // expired
    )
    val box = Box(-1, -1, 2, 2)
    assert(SweepLine.burstyPoint(objs, box, now, cfg).rectCount == 1)
  }
}
