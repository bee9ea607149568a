package repro.core.topk

import scala.collection.mutable
import repro.core._

/** CCS-KSURGE (Algorithm 4): continuous top-k bursty point detection.
  *
  * The top-k problem is reduced to `k` CSPOT problems (Section VI): layer i
  * sees only the rects whose *level* is > i, where the level of a rect is the
  * order of the first selected point it covers (k if it covers none). All
  * layers share one store of [[CspotCell]]s, layer 0's cells, so a cell the
  * layers agree on is updated and searched once (Section VI-B's sharing).
  * A store cell's rects are the only record of which rects touch it, and
  * they carry each rect's level. Layer i holds a private copy of a store
  * cell while `pins` > 0 live rects of level ≤ i touch it; each of those
  * covers one of `p[1..i]`, so copies exist only around selected points. A
  * copy keeps its own bounds and candidate but reads the store cell's
  * rects, and its sweeps leave out those of level ≤ i, so it holds the
  * store's rects minus the pinned ones by construction. One [[MaxHeap]]
  * holds the store's cells and every layer's copies:
  *  - layer i is answered by the lazy search over that heap, which leaves
  *    out the copies of other layers and the store cells layer i copies;
  *  - a stream event moves its rect in the store's cells, and updates their
  *    bounds and those of the copies of the layers the rect is in;
  *  - a level change writes the rect's new level into the store's cells and
  *    updates only the copies' bounds: a rect that starts covering `p[i]` is
  *    pinned to level i, and when `p[i]` moves, a level-i rect that misses
  *    the new `p[i]` is released to level k.
  */
final class KCellCspot(val cfg: SurgeConfig, val k: Int) {
  require(k >= 1)

  private val grid  = new Grid(cfg.rectW, cfg.rectH)
  private val cells = mutable.LongMap.empty[Cell]
  private val heap  = new MaxHeap[Cell]
  private val walk  = new LayerWalk
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

  /** Heap updates so far (cost accounting). */
  private[repro] def heapUpdates: Long = heap.updates

  private var made, moved = 0L

  /** Private copies made so far (cost accounting). */
  private[repro] def copiesMade: Long = made

  /** Rect level changes so far, i.e. `setLevel` calls (cost accounting). */
  private[repro] def levelChanges: Long = moved

  /** A store cell (`layer` 0), or layer `layer`'s private copy of one,
    * which shares its key and its rects.
    */
  private final class Cell(key: Long, box: Box, rects: CellRects = new CellRects, layer: Int = 0)
      extends CspotCell(key, rects, box, CspotCell.Strips, layer) {
    // A store cell's copies by layer, `null` where the layer reads this
    // cell; allocated with the first copy.
    var own: Array[Cell] = _
    // A copy's live rects of level ≤ `layer` that touch the cell, i.e. the
    // rects of `rects` its sweeps leave out.
    var pins = 0

    def search(): Unit = sweep(cfg, ws, stats)

    /** The cell as layer `i` sees it: its copy there, or itself. */
    def in(i: Int): Cell = if (own == null || own(i) == null) this else own(i)

    def copy(layer: Int): Cell = {
      made += 1
      val c = new Cell(key, box, rects, layer)
      c.us = us; c.ud = ud; c.cand = cand; c.candValid = candValid
      if (uds != null) c.uds = uds.clone()
      c
    }
  }

  /** The lazy search for layer `layer`. */
  private final class LayerWalk extends SearchRegion.Walk(heap) {
    var layer = 0
    override protected def skip(c: Cell): Boolean =
      if (c.layer == 0) c.in(layer) ne c else c.layer != layer
  }

  /** Re-keys `c` in the heap; a copy with no rects in its layer leaves it. */
  private def place(c: Cell): Unit =
    if (c.rects.size == c.pins) heap.remove(c) else heap.update(c, c.bound)

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
      place(c)
      if (c.own != null) {
        var i = 1
        while (i < k) {
          val v = c.own(i)
          if (v != null) {
            if (i < l) { v.update(o, obox, dc, dp, cfg, lemma4 = true); place(v) }
            else if (expired) { v.pins -= 1; if (v.pins == 0) { c.own(i) = null; heap.remove(v) } }
          }
          i += 1
        }
      }
      if (c.rects.size == 0) cells.subtractOne(key)
    }

    released.clear()
    var i = 1
    while (i <= k) {
      val old = points(i - 1)
      walk.layer = i - 1
      val p   = walk.best()
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
    * between its old and new level, which pin (or unpin) it in each cell it
    * touches. The first pin copies the store's cell; the last unpin drops
    * the copy.
    */
  private def setLevel(o: SpatialObj, to: Int): Unit = {
    moved += 1
    val s    = lvl(o.id)
    val from = s >> 1
    lvl(o.id) = 2 * to + (s & 1)
    val d    = if (to > from) cfg.delta(o.w) else -cfg.delta(o.w)
    val past = (s & 1) == 1
    val obox = cfg.rectBox(o)
    grid.foreachCell(obox) { key =>
      val c = cells(key)
      c.rects.setLevel(o, to)
      if (c.own == null) c.own = new Array[Cell](k)
      var j = math.min(from, to)
      while (j < math.max(from, to)) {
        var v = c.own(j)
        if (to < from) {
          if (v == null) { v = c.copy(j); c.own(j) = v }
          v.pins += 1
        } else v.pins -= 1
        if (v.pins == 0) { c.own(j) = null; heap.remove(v) }
        else {
          v.update(o, obox, if (past) 0.0 else d, if (past) d else 0.0, cfg, lemma4 = true)
          place(v)
        }
        j += 1
      }
    }
  }

  /** For tests: each (store cell, layer) with the layer's rect ids, whether
    * it reads a private copy, and whether that reads the store cell's rects;
    * and a live rect's level.
    */
  private[repro] def layerCells: Iterator[(Long, Int, Set[Long], Boolean, Boolean)] =
    for (c <- cells.valuesIterator; i <- Iterator.range(0, k); v = c.in(i))
      yield (c.key, i, v.rects.live(i).map(_.id).toSet, v ne c, v.rects eq c.rects)
  private[repro] def level(id: Long): Int = lvl(id) >> 1
}
