package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.{LiveSet, TestGen}
import repro.core._
import repro.stream.EventStream

/** The adapted aG2 baseline must be *exact* (it is a different index over
  * the same problem), so replay-compare it with the brute-force oracle.
  */
class AG2Spec extends AnyFunSuite {

  private def replay(objs: IndexedSeq[SpatialObj], cfg: SurgeConfig): Unit = {
    val algo = new AG2(cfg)
    val live = new LiveSet(cfg.windowMillis)
    EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
      live(e)
      val got = algo.onEvent(e).map(_.score).getOrElse(0.0)
      val exp = BruteForce.burstyPoint(live.objectsAt(e.at), e.at, cfg).map(_.score).getOrElse(0.0)
      assert(math.abs(got - exp) < 1e-6, s"at ${e.kind}@${e.at}: got $got, brute $exp")
    }
  }

  for (seed <- 0 until 10)
    test(s"aG2 matches brute force after every event, seed $seed") {
      replay(TestGen.stream(seed, 40), TestGen.cfg(windowMillis = 1000L, alpha = (seed % 10) / 10.0))
    }

  for (seed <- 0 until 5)
    test(s"aG2 matches brute force on clustered streams, seed $seed") {
      replay(TestGen.clusteredStream(seed, 45), TestGen.cfg(windowMillis = 1200L, alpha = 0.5))
    }

  for (alpha <- Seq(0.0, 0.5, 0.9); seed <- 0 until 3)
    test(s"aG2 matches brute force on tie-heavy streams, alpha=$alpha, seed $seed") {
      replay(TestGen.tiedStream(seed, 45), TestGen.cfg(windowMillis = 3 * TestGen.TiedStep, alpha = alpha))
    }

  test("aG2 agrees with CCS along a whole stream") {
    val cfg = TestGen.cfg(windowMillis = 1500L)
    val a   = new AG2(cfg)
    val c   = new CellCspot(cfg, BoundMode.Full)
    EventStream.fromObjects(TestGen.stream(77, 120), cfg.windowMillis).foreach { e =>
      val ga = a.onEvent(e).map(_.score).getOrElse(0.0)
      val gc = c.onEvent(e).map(_.score).getOrElse(0.0)
      assert(math.abs(ga - gc) < 1e-6)
    }
  }

  test("aG2 counts the same stats through process+query as through onEvent") {
    val cfg   = TestGen.cfg(windowMillis = 1200L, alpha = 0.5)
    val whole = new AG2(cfg)
    val split = new AG2(cfg)
    EventStream.fromObjects(TestGen.clusteredStream(4, 60), cfg.windowMillis).foreach { e =>
      whole.onEvent(e)
      split.process(e); split.query()
    }
    def counts(s: CspotStats) = (s.messages, s.messagesWithSearch, s.searches, s.sweptRects)
    assert(whole.stats.searches > 0)
    assert(counts(split.stats) == counts(whole.stats))
  }

  test("aG2: a second query() makes no search and returns the same point") {
    val cfg  = TestGen.cfg(windowMillis = 3 * TestGen.TiedStep, alpha = 0.5)
    val algo = new AG2(cfg)
    EventStream.fromObjects(TestGen.tiedStream(1, 60), cfg.windowMillis).foreach { e =>
      val first  = algo.onEvent(e)
      val before = algo.stats.searches
      assert(algo.query() == first, s"at ${e.kind}@${e.at}")
      assert(algo.stats.searches == before, s"searched again at ${e.kind}@${e.at}")
    }
    assert(algo.stats.searches > 0)
  }

  test("graph edges drain to zero when the stream expires") {
    val cfg  = TestGen.cfg(windowMillis = 100L)
    val algo = new AG2(cfg)
    EventStream.fromObjects(TestGen.stream(5, 30, span = 400L), cfg.windowMillis)
      .foreach(algo.onEvent)
    assert(algo.edgeCount == 0)
    assert(algo.query().isEmpty)
  }

  test("edge count grows with overlap density (the O(n²) space concern)") {
    val cfg  = TestGen.cfg(windowMillis = 100000L)
    val algo = new AG2(cfg)
    // all objects near one point → near-complete overlap graph
    val objs = (0 until 30).map(i => SpatialObj(i.toLong, 1.0, 1.0 + i * 0.001, 1.0, 1000L + i))
    EventStream.fromObjects(objs, cfg.windowMillis, drainTail = false).foreach(algo.onEvent)
    assert(algo.edgeCount == 30L * 29 / 2)
  }
}
