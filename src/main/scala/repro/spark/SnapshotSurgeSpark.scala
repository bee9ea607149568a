package repro.spark

import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.{DataFrame, Dataset}
import repro.core._

/** Distributed *exact* SURGE on a snapshot.
  *
  * The SURGE→CSPOT reduction (Section IV-A) plus Definition 6's grid makes
  * the exact problem embarrassingly parallel: each rectangle object touches
  * ≤ 4 `b×a` cells in general position and up to 9 when its edges lie on
  * grid lines ([[Grid.foreachCell]]), every covered point lies in some
  * cell, and the bursty point of a cell depends only on the rectangles
  * overlapping that cell. So: explode each object to its overlapped cells,
  * group by cell, run SL-CSPOT per group (typed `mapGroups`), and take the
  * global argmax.
  */
object SnapshotSurgeSpark {

  /** One object keyed by an overlapped cell (a [[Grid]] key). */
  final case class CellObj(key: Long, id: Long, w: Double, x: Double, y: Double, t: Long)

  /** Per-cell sweep result. */
  final case class CellBest(cx: Long, cy: Long, x: Double, y: Double,
                            fc: Double, fp: Double, score: Double, rects: Int)

  /** Exact per-cell bursty points at time `now` (one row per non-empty cell). */
  def cellBursts(objs: DataFrame, cfg: SurgeConfig, now: Long): Dataset[CellBest] = {
    val spark = objs.sparkSession
    import spark.implicits._
    val grid = new Grid(cfg.rectW, cfg.rectH)
    objs
      .select("id", "w", "x", "y", "t")
      .as[SpatialObj]
      .filter((o: SpatialObj) => Win.of(o.t, now, cfg.windowMillis) != Win.Out)
      .flatMap { o =>
        val out = ArrayBuffer.empty[CellObj]
        grid.foreachCell(cfg.rectBox(o))(key => out += CellObj(key, o.id, o.w, o.x, o.y, o.t))
        out
      }
      .groupByKey(_.key)
      .mapGroups { (key: Long, it: Iterator[CellObj]) =>
        val rects = it.map(c => SpatialObj(c.id, c.w, c.x, c.y, c.t)).toIndexedSeq
        val res   = SweepLine.burstyPoint(rects, grid.cellBox(key), now, cfg)
        val p     = res.point.getOrElse(BurstyPoint(0, 0, 0, 0, 0))
        CellBest(Grid.i(key), Grid.j(key), p.x, p.y, p.fc, p.fp, p.score, res.rectCount)
      }
  }

  /** The exact bursty point at time `now` (None for an empty snapshot). */
  def burstyPoint(objs: DataFrame, cfg: SurgeConfig, now: Long): Option[BurstyPoint] = {
    val bests = cellBursts(objs, cfg, now).collect()
    if (bests.isEmpty) None
    else {
      val b = bests.maxBy(_.score)
      Some(BurstyPoint(b.x, b.y, b.fc, b.fp, b.score))
    }
  }
}
