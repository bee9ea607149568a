package repro.core.topk

import scala.collection.mutable
import repro.core._

/** CCS-KSURGE (Algorithm 4): continuous top-k bursty point detection.
  *
  * The top-k problem is reduced to `k` CSPOT problems (Section VI): layer i
  * sees only the rects whose *level* is > i, where the level of a rect is the
  * order of the first selected point it covers (k if it covers none). All
  * layers share one store of [[CspotCell]]s, layer 0's cells, so a cell the
  * layers agree on is updated and searched once (Section VI-B's sharing):
  *  - each layer has a [[MaxHeap]] of views, one per store cell. A view reads
  *    the store's cell unless its layer holds a private copy, which it does
  *    while `pins` > 0 live rects of level ≤ i touch the cell; each of those
  *    covers one of `p[1..i]`, so copies exist only around selected points;
  *  - a stream event updates the store's cell, and the copies of the layers
  *    its rect is in; a level change touches only copies: a rect that starts
  *    covering `p[i]` is pinned to level i, and when `p[i]` moves, a level-i
  *    rect that misses the new `p[i]` is released to level k.
  */
final class KCellCspot(val cfg: SurgeConfig, val k: Int) {
  require(k >= 1)

  private val grid  = new Grid(cfg.rectW, cfg.rectH)
  private val cells = mutable.LongMap.empty[Cell]
  private val heaps = Array.fill(k)(new MaxHeap[View])
  private val ws    = new SweepLine.Workspace
  // Every live rect's level l and window: 2·l, plus 1 while it is in `W_p`.
  // `setLevel` is the only method that changes a level.
  private val lvl    = mutable.LongMap.empty[Int]
  private val points = Array.fill[Option[BurstyPoint]](k)(None)
  // The rects this event released to level k, which may now cover a later p[i].
  private val released = mutable.ArrayBuffer.empty[SpatialObj]

  val stats = new CspotStats

  /** Total SL-CSPOT invocations (cost accounting). */
  def searches: Long = stats.searches

  /** Number of live (non-empty) cells in the store. */
  def cellCount: Int = cells.size

  /** A store cell, with one view per layer, or a layer's private copy of one. */
  private final class Cell(key: Long, box: Box, rects: CellRects = new CellRects, store: Boolean = true)
      extends CspotCell(key, rects, box, CspotCell.Strips) {
    val views: Array[View] = if (store) Array.tabulate(k)(new View(key, _, this)) else null
    def search(): Unit = sweep(cfg, ws, stats)

    def copy(): Cell = {
      val c = new Cell(key, box, rects.copy(), store = false)
      c.us = us; c.ud = ud; c.cand = cand; c.candValid = candValid
      if (uds != null) c.uds = uds.clone()
      c
    }
  }

  /** Layer `layer`'s entry for store cell `shared`, or its private copy `own` while `pins` > 0. */
  private final class View(key: Long, val layer: Int, shared: Cell) extends SearchRegion(key) {
    var own: Cell = _
    var pins = 0
    def cell: Cell = if (own == null) shared else own
    def bound: Double = cell.bound
    def cand: BurstyPoint = cell.cand
    def candValid: Boolean = cell.candValid

    def search(): Unit = {
      cell.search()
      if (own == null) {
        var i = 0
        while (i < k) { val v = shared.views(i); if (v.own == null) v.place(); i += 1 }
      }
    }

    /** Re-keys this view in its layer's heap; an empty copy leaves it. */
    def place(): Unit =
      if (cell.rects.size == 0) heaps(layer).remove(this) else heaps(layer).update(this, bound)
  }

  /** Process one event and return the current top-k bursty points
    * (`None` entries when fewer than i covered points exist).
    */
  def onEvent(e: Event): IndexedSeq[Option[BurstyPoint]] = {
    val o       = e.obj
    val s       = if (e.kind == EventKind.New) 2 * k else lvl(o.id)
    val l       = s >> 1
    val expired = e.kind == EventKind.Expired
    if (expired) lvl.subtractOne(o.id) else lvl(o.id) = s + e.kind.dPast
    stats.message()
    val d    = cfg.delta(o.w)
    val dc   = e.kind.dCur * d
    val dp   = e.kind.dPast * d
    val obox = cfg.rectBox(o)
    grid.foreachCell(obox) { key =>
      var c = if (e.kind == EventKind.New) cells.getOrNull(key) else cells(key)
      if (c == null) { c = new Cell(key, grid.cellBox(key)); cells(key) = c }
      c.update(o, obox, dc, dp, cfg, lemma4 = true)
      var i = 0
      while (i < k) {
        val v = c.views(i)
        if (i < l) { if (v.own != null) v.own.update(o, obox, dc, dp, cfg, lemma4 = true) }
        else if (expired) { v.pins -= 1; if (v.pins == 0) v.own = null }
        v.place()
        i += 1
      }
      if (c.rects.size == 0) cells.subtractOne(key)
    }

    released.clear()
    var i = 1
    while (i <= k) {
      val old = points(i - 1)
      val p   = SearchRegion.best(heaps(i - 1))
      points(i - 1) = p
      if (i < k) {
        // Layer i-1 holds every rect of level ≥ i, so the level-i rects are
        // the rects covering the old p[i], and one leaves p[i]'s cover set
        // iff its box misses the new p[i].
        if (!(old.isDefined && p.isDefined && old.get.x == p.get.x && old.get.y == p.get.y)) {
          old.foreach { q =>
            covering(q).filter(r => lvl(r.id) >> 1 == i && !p.exists(bp => cfg.rectBox(r).contains(bp.x, bp.y)))
              .foreach { r => setLevel(r, k); released += r }
          }
          p.foreach(bp => covering(bp).filter(r => lvl(r.id) >> 1 > i).foreach(setLevel(_, i)))
        } else {
          // p[i] stayed, and after the last event's step i every rect of
          // level > i missed it: only the New rect and the rects released
          // above can cover it now.
          val bp = p.get
          def pin(r: SpatialObj): Unit =
            if (lvl(r.id) >> 1 > i && cfg.rectBox(r).contains(bp.x, bp.y)) setLevel(r, i)
          if (e.kind == EventKind.New) pin(o)
          var j = 0
          while (j < released.length) { pin(released(j)); j += 1 }
        }
      }
      i += 1
    }
    current
  }

  /** Current top-k without processing an event. */
  def current: IndexedSeq[Option[BurstyPoint]] = points.toIndexedSeq

  /** The live rects covering `q`, from the store. */
  private def covering(q: BurstyPoint): Iterator[SpatialObj] = {
    val c = cells.getOrNull(grid.cellOf(q.x, q.y))
    if (c == null) Iterator.empty else c.rects.covering(q.x, q.y, cfg.rectW, cfg.rectH)
  }

  /** Moves live rect `o` to level `to`: it leaves (or rejoins) the layers
    * between its old and new level, whose views pin (or unpin) it. The first
    * pin copies the store's cell; the last unpin drops the copy.
    */
  private def setLevel(o: SpatialObj, to: Int): Unit = {
    val s    = lvl(o.id)
    val from = s >> 1
    lvl(o.id) = 2 * to + (s & 1)
    val d    = if (to > from) cfg.delta(o.w) else -cfg.delta(o.w)
    val past = (s & 1) == 1
    val obox = cfg.rectBox(o)
    grid.foreachCell(obox) { key =>
      val c = cells(key)
      var j = math.min(from, to)
      while (j < math.max(from, to)) {
        val v = c.views(j)
        if (to < from) { if (v.pins == 0) v.own = c.copy(); v.pins += 1 }
        else { v.pins -= 1; if (v.pins == 0) v.own = null }
        if (v.own != null) v.own.update(o, obox, if (past) 0.0 else d, if (past) d else 0.0, cfg, lemma4 = true)
        v.place()
        j += 1
      }
    }
  }

  /** For tests: each (store cell, layer) with the layer's rect ids and
    * whether it reads a private copy; and a live rect's level.
    */
  private[repro] def layerCells: Iterator[(Long, Int, Set[Long], Boolean)] =
    for (c <- cells.valuesIterator; v <- c.views.iterator)
      yield (c.key, v.layer, v.cell.rects.live.map(_.id).toSet, v.own != null)
  private[repro] def level(id: Long): Int = lvl(id) >> 1
}
