package repro.core

import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration
import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._
import repro.{LiveSet, TestGen}
import repro.core.topk.KCellCspot
import repro.stream.EventStream

/** Top-k validation: kCCS (Algorithm 4) must produce the greedy score
  * vector of Definition 9 after every event; the approximate extensions
  * must be well-formed and respect their structural guarantees.
  * Test streams use continuous weights, which make most burst-score ties
  * between different cover sets unlikely, but not all: two points with the
  * same current rects and different past rects both score `(1−α)·f_c`
  * whenever `f_c ≤ f_p` at both. Which of them is picked can then change
  * what later levels see, so the brute-force comparisons below hold on
  * these streams, not for every stream with continuous weights.
  */
class TopKSpec extends AnyFunSuite with TimeLimits {

  private def scores(v: Seq[Option[BurstyPoint]]): Seq[Double] =
    v.map(_.map(_.score).getOrElse(0.0))

  for (k <- Seq(1, 2, 3); seed <- 0 until 8)
    test(s"kCCS matches brute-force greedy top-$k after every event, seed $seed") {
      val cfg  = TestGen.cfg(windowMillis = 1000L, alpha = (seed % 10) / 10.0)
      val algo = new KCellCspot(cfg, k)
      val live = new LiveSet(cfg.windowMillis)
      EventStream.fromObjects(TestGen.stream(seed, 30), cfg.windowMillis).foreach { e =>
        live(e)
        val got = scores(algo.onEvent(e))
        val exp = scores(BruteForce.topK(live.objectsAt(e.at), e.at, cfg, k))
        got.zip(exp).zipWithIndex.foreach { case ((g, x), i) =>
          assert(math.abs(g - x) < 1e-6,
                 s"k=$k level ${i + 1} at ${e.kind}@${e.at}: got $g, expected $x (all got=$got exp=$exp)")
        }
      }
    }

  for (k <- Seq(3, 5); seed <- 0 until 5)
    test(s"kCCS on clustered streams, k=$k, seed $seed") {
      val cfg  = TestGen.cfg(windowMillis = 1200L, alpha = 0.5)
      val algo = new KCellCspot(cfg, k)
      val live = new LiveSet(cfg.windowMillis)
      EventStream.fromObjects(TestGen.clusteredStream(seed, 35), cfg.windowMillis).foreach { e =>
        live(e)
        val got = scores(algo.onEvent(e))
        val exp = scores(BruteForce.topK(live.objectsAt(e.at), e.at, cfg, k))
        got.zip(exp).foreach { case (g, x) => assert(math.abs(g - x) < 1e-6, s"got=$got exp=$exp") }
      }
    }

  // The layers share one cell store: after every event layer i sees, in each
  // store cell, the store's rects minus the live rects of level ≤ i (read
  // through the store's level column), it reads a private copy exactly where
  // those differ, every copy reads its store cell's rects, and a layer left
  // with no rects answers None.
  for (seed <- 0 until 5)
    test(s"kCCS layers are the shared store minus their pinned rects, k=5, seed $seed") {
      val k    = 5
      val cfg  = TestGen.cfg(windowMillis = 1200L, alpha = 0.5)
      val algo = new KCellCspot(cfg, k)
      var copies, emptyLayers = 0
      EventStream.fromObjects(TestGen.clusteredStream(seed, 35), cfg.windowMillis).foreach { e =>
        val got   = algo.onEvent(e)
        val layers = algo.layerCells.toSeq
        val store  = layers.collect { case (key, 0, ids, _, _) => key -> ids }.toMap
        layers.foreach { case (key, i, ids, own, shared) =>
          val want = store(key).filter(algo.level(_) > i)
          assert(ids == want, s"at ${e.kind}@${e.at}: layer $i cell $key holds $ids, want $want")
          assert(own == (want != store(key)), s"at ${e.kind}@${e.at}: layer $i cell $key private copy = $own")
          assert(shared, s"at ${e.kind}@${e.at}: layer $i cell $key reads rects of its own")
          if (own) copies += 1
        }
        for (i <- 0 until k if layers.forall { case (_, j, ids, _, _) => j != i || ids.isEmpty }) {
          assert(got(i).isEmpty, s"at ${e.kind}@${e.at}: empty layer $i answers ${got(i)}")
          emptyLayers += 1
        }
      }
      assert(copies > 0 && emptyLayers > 0)
    }

  // Ties make the greedy vector ambiguous beyond p₁ (which tied point is
  // picked decides what later levels see), so only p₁ is checked here.
  for (alpha <- Seq(0.0, 0.5, 0.9); seed <- 0 until 3)
    test(s"kCCS p1 matches brute force on tie-heavy streams, k=3, alpha=$alpha, seed $seed") {
      val cfg  = TestGen.cfg(windowMillis = 3 * TestGen.TiedStep, alpha = alpha)
      val algo = new KCellCspot(cfg, 3)
      val live = new LiveSet(cfg.windowMillis)
      EventStream.fromObjects(TestGen.tiedStream(seed, 45), cfg.windowMillis).foreach { e =>
        live(e)
        val p1  = algo.onEvent(e).head
        val exp = BruteForce.burstyPoint(live.objectsAt(e.at), e.at, cfg).map(_.score).getOrElse(0.0)
        assert(math.abs(p1.map(_.score).getOrElse(0.0) - exp) < 1e-6, s"at ${e.kind}@${e.at}: got $p1, brute $exp")
        p1.foreach { p =>
          val chk = BruteForce.scoreAt(live.objectsAt(e.at), e.at, cfg, p.x, p.y)
          assert(math.abs(chk.score - p.score) < 1e-6, s"stale p1 $p vs $chk")
        }
      }
    }

  /** Asserts that each `got(i)` is a best point over the live rects covering
    * none of `got(0 until i)`, at its true score there, within `tol(score)`.
    * With ties this is the greedy vector of the points kCCS picked.
    */
  private def greedyOverOwnPoints(got: Seq[Option[BurstyPoint]], live: IndexedSeq[SpatialObj], now: Long,
                                  cfg: SurgeConfig, tol: Double => Double, at: String): Unit = {
    var remaining = live
    got.zipWithIndex.foreach { case (p, i) =>
      val want = BruteForce.burstyPoint(remaining, now, cfg).map(_.score).getOrElse(0.0)
      val g    = p.map(_.score).getOrElse(0.0)
      assert(math.abs(g - want) <= tol(want), s"$at: p${i + 1} scores $g, best over the rest $want")
      p.foreach { q =>
        val chk = BruteForce.scoreAt(remaining, now, cfg, q.x, q.y).score
        assert(math.abs(chk - g) <= tol(want), s"$at: p${i + 1} $q scores $chk there")
        remaining = remaining.filterNot(o => cfg.rectBox(o).contains(q.x, q.y))
      }
    }
  }

  // Corners on a lattice of eighths of a cell put rect edges on the
  // boundaries of its strips, and integer weights make ties. Which tied
  // point is picked decides what later levels see, so each level is checked
  // against the rects its own earlier points leave.
  for (alpha <- Seq(0.0, 0.5, 0.9); seed <- 0 until 3)
    test(s"kCCS top-3 is greedy over its own points on an eighths lattice, alpha=$alpha, seed $seed") {
      val cfg  = TestGen.cfg(windowMillis = 3 * TestGen.TiedStep, alpha = alpha)
      val algo = new KCellCspot(cfg, 3)
      val live = new LiveSet(cfg.windowMillis)
      EventStream.fromObjects(TestGen.tiedStream(seed, 80, ext = 2, lattice = 8), cfg.windowMillis).foreach { e =>
        live(e)
        greedyOverOwnPoints(algo.onEvent(e), live.objectsAt(e.at), e.at, cfg, _ => 1e-6, s"${e.kind}@${e.at}")
      }
    }

  // As in CellCspotSpec: scores near 1e6, where no `w/|W|` is exact; a
  // search that left its cell (a layer's view of it) invalid would never
  // let the query return.
  for (alpha <- Seq(0.0, 0.5, 0.9))
    test(s"kCCS: every search leaves its view valid at scores near 1e6, alpha=$alpha") {
      implicit val signaler: Signaler = ThreadSignaler
      val cfg  = TestGen.cfg(windowMillis = 1000L, alpha = alpha)
      val objs = TestGen.tiedStream(3, 150, ext = 2, lattice = 8).map(o => o.copy(w = 37 * o.w))
      val run = Future {
        val algo = new KCellCspot(cfg, 3)
        val live = new LiveSet(cfg.windowMillis)
        EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
          live(e)
          greedyOverOwnPoints(algo.onEvent(e), live.objectsAt(e.at), e.at, cfg,
                              w => 1e-9 * math.max(1.0, w), s"${e.kind}@${e.at}")
        }
        algo.searches
      }
      failAfter(60.seconds)(assert(Await.result(run, Duration.Inf) > 0))
    }

  test("kCCS top-k scores are non-increasing in k") {
    val cfg  = TestGen.cfg(windowMillis = 1000L)
    val algo = new KCellCspot(cfg, 4)
    EventStream.fromObjects(TestGen.stream(21, 40), cfg.windowMillis, drainTail = false).foreach { e =>
      val s = scores(algo.onEvent(e))
      s.sliding(2).foreach {
        case Seq(a, b) => assert(a >= b - 1e-9, s"scores not descending: $s")
        case _         => ()
      }
    }
  }

  test("kCCS level-1 result equals plain CCS") {
    val cfg = TestGen.cfg(windowMillis = 1000L)
    val k3  = new KCellCspot(cfg, 3)
    val ccs = new CellCspot(cfg, BoundMode.Full)
    EventStream.fromObjects(TestGen.stream(22, 40), cfg.windowMillis).foreach { e =>
      val top  = k3.onEvent(e).head.map(_.score).getOrElse(0.0)
      val base = ccs.onEvent(e).map(_.score).getOrElse(0.0)
      assert(math.abs(top - base) < 1e-6)
    }
  }

  for (seed <- 0 until 6)
    test(s"kGAPS equals the k best reference cell scores, seed $seed") {
      val cfg  = TestGen.cfg(windowMillis = 1500L, alpha = 0.5)
      val algo = new GapSurge(cfg)
      val grid = new Grid(cfg.rectW, cfg.rectH)
      val live = new LiveSet(cfg.windowMillis)
      EventStream.fromObjects(TestGen.stream(seed, 60), cfg.windowMillis).foreach { e =>
        live(e)
        algo.process(e)
        val got = algo.topK(3).map(_.score)
        val ref = live.objectsAt(e.at)
          .groupBy(o => grid.cellOf(o.x, o.y))
          .map { case (_, os) =>
            val fc = os.filter(o => Win.of(o.t, e.at, cfg.windowMillis) == Win.Cur).map(o => cfg.delta(o.w)).sum
            val fp = os.filter(o => Win.of(o.t, e.at, cfg.windowMillis) == Win.Past).map(o => cfg.delta(o.w)).sum
            cfg.burst(fc, fp)
          }
          .toSeq.sorted(Ordering[Double].reverse)
        // non-empty cells only; the structure drops fully-expired cells
        val expected = ref.take(got.length)
        got.zip(expected).foreach { case (g, x) => assert(math.abs(g - x) < 1e-6) }
      }
    }

  test("kMGAPS results are disjoint, descending, and at least as good as kGAPS's best") {
    val cfg  = TestGen.cfg(windowMillis = 1500L)
    val kg   = new GapSurge(cfg)
    val km   = new MGapSurge(cfg)
    EventStream.fromObjects(TestGen.clusteredStream(30, 80), cfg.windowMillis, drainTail = false)
      .foreach { e =>
        kg.process(e); km.process(e)
      }
    val g = kg.topK(3)
    val m = km.topK(3)
    assert(m.nonEmpty)
    m.sliding(2).foreach {
      case Seq(a, b) => assert(a.score >= b.score - 1e-9)
      case _         => ()
    }
    for (i <- m.indices; j <- m.indices if i < j)
      assert(!m(i).box.overlapsOpen(m(j).box))
    if (g.nonEmpty) assert(m.head.score >= g.head.score - 1e-9)
  }
}
