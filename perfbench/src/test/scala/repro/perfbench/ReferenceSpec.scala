package repro.perfbench

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.stream.EventStream

/** The benchmark's oracle must agree with the brute-force solvers on small
  * streams after every event, and must notice a wrong answer.
  */
class ReferenceSpec extends AnyFunSuite {

  private val cfg = SurgeConfig(1.0, 1.0, 1000L, 0.5)

  /** `n` objects over 3 s with continuous weights (no score ties), half of
    * them clustered so that cells hold several rectangles.
    */
  private def stream(seed: Int, n: Int): IndexedSeq[SpatialObj] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      val (x, y) =
        if (rng.nextBoolean()) (1.5 + rng.nextGaussian() * 0.5, 1.5 + rng.nextGaussian() * 0.5)
        else (rng.nextDouble() * 5, rng.nextDouble() * 5)
      SpatialObj(i.toLong, 0.5 + rng.nextDouble(), x, y, 10000L + (i * 3000L / n))
    }
  }

  /** Replays `objs` and calls `f(live, now)` after every event. */
  private def replay(objs: IndexedSeq[SpatialObj])(f: (IndexedSeq[SpatialObj], Long, Event) => Unit): Unit = {
    val live = new LiveWindows(cfg.windowMillis)
    EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
      live(e)
      f(live.objectsAt(e.at), e.at, e)
    }
  }

  private def close(a: Double, b: Double) = math.abs(a - b) <= 1e-9 * math.max(1, math.abs(b))

  for (seed <- 0 until 4) {
    test(s"exact reference equals BruteForce after every event, seed $seed") {
      replay(stream(seed, 40)) { (live, now, _) =>
        val want = BruteForce.burstyPoint(live, now, cfg).map(_.score)
        val got  = Reference.exact(live, now, cfg).map(_.score)
        assert(got.isDefined == want.isDefined)
        got.zip(want).foreach { case (g, w) => assert(close(g, w), s"t=$now") }
      }
    }

    test(s"top-k reference equals BruteForce.topK after every event, seed $seed") {
      replay(stream(seed, 30)) { (live, now, _) =>
        var remaining = live
        BruteForce.topK(live, now, cfg, 3).foreach { want =>
          val got = Reference.exact(remaining, now, cfg)
          assert(got.map(_.score).isDefined == want.isDefined)
          got.zip(want).foreach { case (g, w) =>
            assert(close(g.score, w.score), s"t=$now")
            assert(close(Reference.scoreAt(remaining, now, cfg, w.x, w.y).score, w.score))
          }
          want.foreach(p => remaining = remaining.filterNot(o => cfg.rectBox(o).contains(p.x, p.y)))
        }
      }
    }

    test(s"shifted-grid recount lies within MGAPS's guarantee of BruteForce, seed $seed") {
      replay(stream(seed, 40)) { (live, now, _) =>
        val opt  = BruteForce.burstyPoint(live, now, cfg).fold(0.0)(_.score)
        val grid = Reference.shiftedGridsMax(live, now, cfg).getOrElse(0.0)
        assert(grid <= opt + 1e-9)
        assert(grid >= (1 - cfg.alpha) / 4 * opt - 1e-9) // Theorem 4
      }
    }

    test(s"every subject passes its check after every event, seed $seed") {
      val subjects = Seq(new Subject.Ccs(cfg), new Subject.MGaps(cfg), new Subject.KCcs(cfg, 3))
      replay(stream(seed, 40)) { (live, now, e) =>
        subjects.foreach { s =>
          s.process(e)
          s.answer()
          assert(s.check(live, now).isEmpty, s"${s.getClass.getSimpleName} at t=$now")
        }
      }
    }
  }

  test("checks report a detector that misses objects") {
    val subjects = Seq(new Subject.Ccs(cfg), new Subject.MGaps(cfg), new Subject.KCcs(cfg, 3))
    val objs = stream(7, 40)
    val mismatches = Array.fill(subjects.length)(0)
    replay(objs) { (live, now, e) =>
      subjects.zipWithIndex.foreach { case (s, i) =>
        if (e.obj.id % 2 == 1) { s.process(e); s.answer() } // even ids never reach the detector
        if (s.check(live, now).nonEmpty) mismatches(i) += 1
      }
    }
    assert(mismatches.forall(_ > 0), mismatches.mkString(","))
  }

  test("cell groups hold every live rect touching the cell, and only those") {
    val objs = stream(3, 60).map(_.copy(t = 10000L))
    val groups = Reference.cellGroups(objs, 10000L, cfg)
    for (((i, j), rs) <- groups; o <- objs) {
      val touches = cfg.rectBox(o).intersectsClosed(Reference.cellBox(i, j, cfg))
      assert(rs.contains(o) == touches)
    }
    // A rect whose left edge lies on a grid line also touches the cell to its left.
    val aligned = SpatialObj(0, 1.0, 2.0, 0.5, 10000L)
    assert(Reference.cellGroups(Seq(aligned), 10000L, cfg).keySet.contains((1L, 0L)))
  }
}
