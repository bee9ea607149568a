package repro.perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import repro.core._

/** The objects of `W_c ∪ W_p` with the window membership that the processed
  * events give them. Several events can share one firing time, so mid-batch
  * the detectors' state differs from a wall-clock `Win.of(now)` view; the
  * reference therefore follows the events, like the detectors do.
  */
final class LiveWindows(windowMillis: Long) {
  private val cur  = mutable.LinkedHashMap.empty[Long, SpatialObj]
  private val past = mutable.LinkedHashMap.empty[Long, SpatialObj]

  def apply(e: Event): Unit = e.kind match {
    case EventKind.New     => cur(e.obj.id) = e.obj
    case EventKind.Grown   => cur.remove(e.obj.id).foreach(o => past(o.id) = o)
    case EventKind.Expired => past.remove(e.obj.id); cur.remove(e.obj.id)
  }

  def size: Int = cur.size + past.size

  /** Live objects with timestamps moved so that `Win.of(t, now)` yields the
    * event-driven membership: current objects at `now`, past ones at
    * `now − |W|`.
    */
  def objectsAt(now: Long): IndexedSeq[SpatialObj] =
    (cur.valuesIterator.map(_.copy(t = now)) ++
      past.valuesIterator.map(_.copy(t = now - windowMillis))).toIndexedSeq
}

/** Answers recomputed from scratch from a snapshot of live objects, written
  * independently of the detectors' incremental state. Window membership is
  * `Win.of(o.t, now)` throughout.
  */
object Reference {

  /** Scores agree when they differ by at most this share of their size. */
  val RelTol = 1e-9

  def agrees(got: Double, want: Double): Boolean =
    math.abs(got - want) <= RelTol * math.max(1.0, math.abs(want))

  /** The closed extent of cell `(i, j)` of the zero-offset `b×a` grid. */
  def cellBox(i: Long, j: Long, cfg: SurgeConfig): Box =
    Box(i * cfg.rectW, j * cfg.rectH, (i + 1) * cfg.rectW, (j + 1) * cfg.rectH)

  /** Live rectangles grouped by every cell of the `b×a` grid whose closed
    * extent they touch. Every point lies in some cell whose group holds all
    * rectangles covering it, so the per-cell maxima cover the whole plane.
    */
  def cellGroups(objs: Iterable[SpatialObj], now: Long,
                 cfg: SurgeConfig): mutable.HashMap[(Long, Long), ArrayBuffer[SpatialObj]] = {
    val groups = mutable.HashMap.empty[(Long, Long), ArrayBuffer[SpatialObj]]
    objs.foreach { o =>
      if (Win.of(o.t, now, cfg.windowMillis) != Win.Out) {
        val r = cfg.rectBox(o)
        var i = math.floor(r.x0 / cfg.rectW).toLong - 1
        while (i <= math.floor(r.x1 / cfg.rectW).toLong) {
          var j = math.floor(r.y0 / cfg.rectH).toLong - 1
          while (j <= math.floor(r.y1 / cfg.rectH).toLong) {
            if (r.intersectsClosed(cellBox(i, j, cfg)))
              groups.getOrElseUpdate((i, j), ArrayBuffer.empty[SpatialObj]) += o
            j += 1
          }
          i += 1
        }
      }
    }
    groups
  }

  /** The exact bursty point: an SL-CSPOT solve per cell, visiting cells by
    * descending current-window weight and stopping once no remaining cell
    * can beat the best score. The weight is a valid bound because a point's
    * burst score never exceeds its `f_c`.
    */
  def exact(objs: Iterable[SpatialObj], now: Long, cfg: SurgeConfig): Option[BurstyPoint] = {
    val cells = cellGroups(objs, now, cfg).toArray.map { case (k, rs) =>
      val bound = rs.iterator
        .filter(o => Win.of(o.t, now, cfg.windowMillis) == Win.Cur)
        .map(o => cfg.delta(o.w)).sum
      (bound, k, rs)
    }.sortBy(-_._1)
    var best: BurstyPoint = null
    var c = 0
    while (c < cells.length && (best == null || cells(c)._1 > best.score)) {
      val (_, (i, j), rs) = cells(c)
      SweepLine.burstyPoint(rs, cellBox(i, j, cfg), now, cfg).point.foreach { p =>
        if (best == null || p.score > best.score) best = p
      }
      c += 1
    }
    Option(best)
  }

  /** `f_c`, `f_p` and burst score of point `(x, y)`. */
  def scoreAt(objs: Iterable[SpatialObj], now: Long, cfg: SurgeConfig,
              x: Double, y: Double): BurstyPoint = {
    var fc = 0.0; var fp = 0.0
    objs.foreach { o =>
      if (cfg.rectBox(o).contains(x, y)) Win.of(o.t, now, cfg.windowMillis) match {
        case Win.Cur  => fc += cfg.delta(o.w)
        case Win.Past => fp += cfg.delta(o.w)
        case Win.Out  => ()
      }
    }
    BurstyPoint(x, y, fc, fp, cfg.burst(fc, fp))
  }

  /** The best burst score among the cells of the `b×a` grid anchored at
    * `(offX, offY)`, counting each object in the cell containing its point.
    */
  def gridMax(objs: Iterable[SpatialObj], now: Long, cfg: SurgeConfig,
              offX: Double, offY: Double): Option[Double] = {
    val sums = mutable.HashMap.empty[(Long, Long), Array[Double]]
    objs.foreach { o =>
      val win = Win.of(o.t, now, cfg.windowMillis)
      if (win != Win.Out) {
        val key = (math.floor((o.x - offX) / cfg.rectW).toLong, math.floor((o.y - offY) / cfg.rectH).toLong)
        val s = sums.getOrElseUpdate(key, new Array[Double](2))
        if (win == Win.Cur) s(0) += cfg.delta(o.w) else s(1) += cfg.delta(o.w)
      }
    }
    if (sums.isEmpty) None else Some(sums.valuesIterator.map(s => cfg.burst(s(0), s(1))).max)
  }

  /** MGAP-SURGE's answer recounted: the best cell of the four half-cell
    * shifted grids.
    */
  def shiftedGridsMax(objs: Iterable[SpatialObj], now: Long, cfg: SurgeConfig): Option[Double] = {
    val offsets = Seq((0.0, 0.0), (cfg.rectW / 2, 0.0), (0.0, cfg.rectH / 2), (cfg.rectW / 2, cfg.rectH / 2))
    offsets.flatMap { case (ox, oy) => gridMax(objs, now, cfg, ox, oy) }.maxOption
  }
}
