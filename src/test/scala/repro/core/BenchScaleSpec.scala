package repro.core

import scala.collection.mutable
import org.scalatest.funsuite.AnyFunSuite
import repro.LiveSet
import repro.core.topk.KCellCspot
import repro.data.SpatialStreams
import repro.stream.EventStream

/** CCS and kCCS (k = 3 and 5) on a US stream at the density of perfbench's `ccs-us`
  * workload (1/4 of the paper's rate) and 2.4 windows long, so that both
  * windows fill and a searched cell holds about a hundred rects; the small
  * `TestGen` streams never fill cells like this.
  * At sampled events every reported score must equal a fresh per-cell
  * SL-CSPOT over the live set, up to a tolerance relative to the score.
  * That reference sweeps with the same kernel as the detectors, so CCS's
  * answer is also re-scored by [[BruteForce]] over the cell holding it.
  */
class BenchScaleSpec extends AnyFunSuite {
  private val spec    = SpatialStreams.US.copy(seed = 201L * 1000003L)
  private val cfg     = spec.config(0.5)
  private val objects = 10000
  private val objs    = SpatialStreams.generate(spec, objects, 0.25 * 1e6 / objects)
  private val events  = 3 * objects // every object is New, Grown and Expired once
  private val samples = 50

  /** The best score over `live`: the max of a fresh sweep of every cell. */
  private def fresh(live: IndexedSeq[SpatialObj], now: Long): Option[Double] = {
    val grid  = new Grid(cfg.rectW, cfg.rectH)
    val cells = mutable.LongMap.empty[mutable.ArrayBuffer[SpatialObj]]
    live.foreach(o => grid.foreachCell(cfg.rectBox(o))(k => cells.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += o))
    cells.iterator.flatMap { case (k, rs) => SweepLine.burstyPoint(rs, grid.cellBox(k), now, cfg).point }
      .map(_.score).maxOption
  }

  private def agree(got: Option[Double], want: Option[Double]): Boolean = (got, want) match {
    case (None, None)       => true
    case (Some(g), Some(w)) => math.abs(g - w) <= 1e-9 * math.max(1.0, math.abs(w))
    case _                  => false
  }

  /** Replays the stream, calling `check(live, now)` after every
    * `events / samples`-th event.
    */
  private def replay(step: Event => Unit)(check: (IndexedSeq[SpatialObj], Long) => Unit): Unit = {
    val live = new LiveSet(cfg.windowMillis)
    var i = 0
    EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
      live(e)
      step(e)
      i += 1
      if (i % (events / samples) == 0) check(live.objectsAt(e.at), e.at)
    }
  }

  test("CCS equals a fresh per-cell sweep at bench density") {
    val ccs  = new CellCspot(cfg, BoundMode.Full)
    var last = Option.empty[BurstyPoint]
    var checked = 0
    val grid = new Grid(cfg.rectW, cfg.rectH)
    replay(e => last = ccs.onEvent(e)) { (live, now) =>
      val want = fresh(live, now)
      assert(agree(last.map(_.score), want), s"at $now: CCS $last, fresh $want")
      // The best point of the answer's cell is the best point overall.
      for (p <- last) {
        val box = grid.cellBox(grid.cellOf(p.x, p.y))
        assert(box.contains(p.x, p.y))
        val brute = BruteForce.burstyPoint(live, now, cfg, Some(box)).map(_.score)
        assert(agree(Some(p.score), brute), s"at $now: CCS $p, brute force over $box $brute")
      }
      checked += 1
    }
    assert(checked == samples)
    // About 70 rects per search over the whole stream, fill and drain included.
    assert(ccs.stats.sweptRects > 50 * ccs.stats.searches, "cells are not at bench density")
  }

  for (k <- Seq(3, 5)) test(s"kCCS($k) equals fresh per-cell sweeps at bench density") {
    val det  = new KCellCspot(cfg, k)
    var last = IndexedSeq.empty[Option[BurstyPoint]]
    replay(e => last = det.onEvent(e)) { (live, now) =>
      // p_i scores the optimum over the rects covering none of p_1..p_{i-1}.
      var remaining = live
      for (i <- 0 until k) {
        val want = fresh(remaining, now)
        assert(agree(last(i).map(_.score), want), s"at $now, p${i + 1}: kCCS ${last(i)}, fresh $want")
        last(i).foreach(p => remaining = remaining.filterNot(o => cfg.rectBox(o).contains(p.x, p.y)))
      }
    }
  }
}
