package repro.perfbench

import repro.core._
import repro.core.topk.KCellCspot

/** One workload's detector behind the two calls a timed op makes after
  * pulling its event: `process` (the update) and `answer` (reading the
  * current result). Only public detector APIs are used.
  */
sealed abstract class Subject {
  def process(e: Event): Unit
  def answer(): Unit

  /** Cumulative SL-CSPOT searches made by the detector (0 if it never sweeps). */
  def searches: Long

  /** Cumulative rects swept, or -1 where the detector does not expose it. */
  def sweptRects: Long

  /** Live cells of the detector's index, or -1 where it does not expose them. */
  def cellsLive: Int

  /** Compares the last answer with a recomputation over `live` (objects
    * whose `t` encodes their window at `now`); returns a description of
    * the mismatch, if any.
    */
  def check(live: IndexedSeq[SpatialObj], now: Long): Option[String]
}

object Subject {
  private def compareScores(what: String, got: Option[Double], want: Option[Double]): Option[String] =
    (got, want) match {
      case (None, None)                                => None
      case (Some(g), Some(w)) if Reference.agrees(g, w) => None
      case _ => Some(s"$what: detector ${got.getOrElse("none")}, reference ${want.getOrElse("none")}")
    }

  /** CCS (`CellCspot` with both bounds): `process` then `query`. */
  final class Ccs(cfg: SurgeConfig) extends Subject {
    private val det = new CellCspot(cfg, BoundMode.Full)
    private var last: Option[BurstyPoint] = None
    def process(e: Event): Unit = det.process(e)
    def answer(): Unit = last = det.query()
    def searches: Long = det.stats.searches
    def sweptRects: Long = det.stats.sweptRects
    def cellsLive: Int = det.cellCount
    def check(live: IndexedSeq[SpatialObj], now: Long): Option[String] =
      compareScores("CCS score", last.map(_.score), Reference.exact(live, now, cfg).map(_.score))
  }

  /** MGAPS: `process` then `top`. */
  final class MGaps(cfg: SurgeConfig) extends Subject {
    private val det = new MGapSurge(cfg)
    private var last: Option[CellResult] = None
    def process(e: Event): Unit = det.process(e)
    def answer(): Unit = last = det.top
    def searches: Long = 0L
    def sweptRects: Long = -1L
    def cellsLive: Int = det.grids.map(_.cellCount).sum
    def check(live: IndexedSeq[SpatialObj], now: Long): Option[String] =
      compareScores("MGAPS score", last.map(_.score), Reference.shiftedGridsMax(live, now, cfg))
  }

  /** kCCS: `onEvent` (the update and all k layer queries) then `current`. */
  final class KCcs(cfg: SurgeConfig, k: Int) extends Subject {
    private val det = new KCellCspot(cfg, k)
    private var last: IndexedSeq[Option[BurstyPoint]] = IndexedSeq.fill(k)(None)
    def process(e: Event): Unit = det.onEvent(e)
    def answer(): Unit = last = det.current
    def searches: Long = det.searches
    def sweptRects: Long = -1L
    def cellsLive: Int = -1

    /** `p₁` must score the exact optimum; each `pᵢ` must score the optimum
      * over the rects covering none of `p₁…pᵢ₋₁` (Definition 9), and its
      * own score must match a recount over those rects.
      */
    def check(live: IndexedSeq[SpatialObj], now: Long): Option[String] = {
      var remaining = live
      var i = 0
      var bad: Option[String] = None
      while (bad.isEmpty && i < k) {
        val got = last(i)
        bad = compareScores(s"p${i + 1} score", got.map(_.score), Reference.exact(remaining, now, cfg).map(_.score))
        got.foreach { p =>
          if (bad.isEmpty) {
            val recount = Reference.scoreAt(remaining, now, cfg, p.x, p.y).score
            bad = compareScores(s"p${i + 1} recount", Some(p.score), Some(recount))
          }
          remaining = remaining.filterNot(o => cfg.rectBox(o).contains(p.x, p.y))
        }
        i += 1
      }
      bad
    }
  }
}
