package repro.core

import scala.collection.mutable

/** Upper-bound discipline of a [[CellCspot]] instance (Section VII-A):
  * `Full` = CCS (static Eqn 2 + dynamic Eqn 3 bounds, candidate reuse),
  * `StaticOnly` = B-CCS (static bound only, candidate reuse),
  * `NoBounds` = Base (no bound: every cell an event touches is searched
  * at the next query).
  */
sealed abstract class BoundMode
object BoundMode {
  case object Full       extends BoundMode
  case object StaticOnly extends BoundMode
  case object NoBounds   extends BoundMode
}

/** Search-cost counters for Table II and the runtime tables. */
final class CspotStats {
  var messages: Long = 0L
  var messagesWithSearch: Long = 0L
  var searches: Long = 0L
  var sweptRects: Long = 0L
  /** Searches by the number of strips they swept (index 1 to [[CspotCell.Strips]]). */
  val byStrips = new Array[Long](CspotCell.Strips + 1)
  // `messages` when `messagesWithSearch` last counted, so a message counts once
  private var searchedAt: Long = 0L

  /** A message was processed. */
  def message(): Unit = messages += 1

  /** One SL-CSPOT search, made for the latest message. */
  def search(res: SweepLine.SweepResult): Unit = {
    searches += 1
    sweptRects += res.rectCount
    byStrips(res.strips) += 1
    if (searchedAt != messages) { messagesWithSearch += 1; searchedAt = messages }
  }

  def reset(): Unit = {
    messages = 0; messagesWithSearch = 0; searches = 0; sweptRects = 0; searchedAt = 0
    java.util.Arrays.fill(byStrips, 0L)
  }
  def searchRatio: Double =
    if (messages == 0) 0.0 else messagesWithSearch.toDouble / messages
}

/** A region of Algorithm 2's lazy search: an upper bound on the burst score
  * of any point in it, and a candidate point that `search` makes valid.
  */
private[repro] abstract class SearchRegion(key: Long) extends HeapEntry(key) {
  def bound: Double
  def cand: BurstyPoint
  def candValid: Boolean
  def search(): Unit
}

private[repro] object SearchRegion {

  /** The lazy-update search of Section IV-C1 over `heap`, one per detector
    * and reused between calls. It reads regions best-first by (bound desc,
    * key asc) from a small frontier of heap slots and never moves a region
    * it has not searched:
    *  - an invalid region is searched and re-keyed at its new bound, and
    *    the walk restarts from the top;
    *  - a region that `skip` leaves out passes its children on;
    *  - a valid region offers its candidate, and its children join the
    *    frontier;
    *  - the walk stops at the first region whose bound does not exceed the
    *    best candidate by more than `1e-9`.
    *
    * A restart re-reads the valid regions it has already offered, which
    * changes nothing, so the regions are searched and offered in the order
    * of a loop that pops each one from the heap and puts it back at the end.
    */
  class Walk[R <: SearchRegion](heap: MaxHeap[R]) {
    // Heap slots whose parents have been read, kept as a binary heap in the
    // heap's order.
    private var f = new Array[Int](16)
    private var n = 0

    /** Whether the walk leaves `r` out: neither searched nor offered. */
    protected def skip(r: R): Boolean = false

    /** The best point over the regions `skip` keeps. A valid top that no
      * bound below it exceeds is the answer at once; the walk is a method
      * of its own, so that a caller that inlines `best` takes in only this
      * check.
      */
    final def best(): Option[BurstyPoint] = {
      val r = heap.top
      if (r != null && r.candValid && !skip(r) && heap.belowTop <= r.cand.score + 1e-9) Some(r.cand) else walk()
    }

    private def walk(): Option[BurstyPoint] = {
      var best: BurstyPoint = null
      restart()
      while (n > 0) {
        val i = take()
        val r = heap(i)
        if (best != null && r.prio <= best.score + 1e-9) n = 0
        else if (skip(r)) children(i)
        else if (!r.candValid) {
          r.search()
          heap.update(r, r.bound)
          restart()
        } else {
          if (best == null || r.cand.score > best.score) best = r.cand
          children(i)
        }
      }
      Option(best)
    }

    private def restart(): Unit = { n = 0; push(0) }

    private def children(i: Int): Unit = { push(2 * i + 1); push(2 * i + 2) }

    // Adds slot `i` to the frontier, if the heap has it.
    private def push(i: Int): Unit = if (i < heap.size) {
      if (n == f.length) f = java.util.Arrays.copyOf(f, 2 * n)
      var j = n
      n += 1
      while (j > 0 && heap.before(i, f((j - 1) / 2))) { f(j) = f((j - 1) / 2); j = (j - 1) / 2 }
      f(j) = i
    }

    // Removes and returns the frontier's first slot.
    private def take(): Int = {
      val first = f(0)
      n -= 1
      val last = f(n)
      var j = 0
      var c = 1
      while (c < n) {
        if (c + 1 < n && heap.before(f(c + 1), f(c))) c += 1
        if (heap.before(f(c), last)) { f(j) = f(c); j = c; c = 2 * j + 1 } else c = n
      }
      f(j) = last
      first
    }
  }
}

/** A grid cell of Algorithm 2 and its search state:
  *  - the rectangle objects overlapping its closed `box` across `W_c ∪ W_p`,
  *  - the static upper bound `U_s` of Eqn 2, maintained incrementally,
  *  - the dynamic upper bound `U_d` of Eqn 3, kept per equal horizontal
  *    strip of `box` (`strips` of them) from the first search on, and +∞
  *    until then; `ud` is the largest,
  *  - a candidate point whose per-window scores are tracked incrementally.
  *    It is valid (the cell's best) while its score reaches `ud`.
  *
  * Window membership is *event-driven*: a rect is Past from the update that
  * adds its weight to `W_p` until the one that takes it out. This keeps
  * searches consistent with the incrementally tracked bounds and candidates
  * when several events share one firing timestamp.
  *
  * A cell of top-k layer `layer > 0` reads the `rects` of layer 0's cell
  * and keeps only its own bounds and candidate (see `KCellCspot`).
  */
private[repro] abstract class CspotCell(key: Long, val rects: CellRects, val box: Box, strips: Int,
                                        val layer: Int = 0) extends SearchRegion(key) {
  var us: Double = 0.0
  var ud: Double = Double.PositiveInfinity
  // `U_d` per strip, bottom to top; allocated at the first sweep.
  var uds: Array[Double] = _
  var cand: BurstyPoint = _
  var candValid: Boolean = false

  /** CCS's bound `U(c) = min(U_s, U_d)`. */
  def bound: Double = math.min(math.max(us, 0.0), ud)

  /** The Lemma 3/4 case analysis, once: the points `o` (box `obox`) covers
    * change by `dc` in `f_c` and `dp` in `f_p`.
    *  - `o` joins the cell when `dc + dp > 0` and leaves when `< 0`, and it
    *    is Past from `dp > 0` until `dp < 0`. Only a layer-0 cell moves
    *    `rects`: a top-k layer's cell reads its store cell's, so its updates
    *    move only its bounds and candidate;
    *  - `U_s` (Eqn 2) moves by `dc`;
    *  - `U_d` (Eqn 3) of every strip `o` meets grows by the largest rise of
    *    `S = max(f_c − α·f_p, (1−α)·f_c)` any covered point can see;
    *  - the candidate's tracked scores move by `(dc, dp)` if `o` covers it;
    *  - Lemma 4: the candidate is valid iff its score reaches `ud`. With one
    *    strip a candidate, once invalid, stays so until the next search;
    *    with more, a rect that misses it invalidates it only by lifting a
    *    strip above its score, and its own later rises can overtake that
    *    strip again. Without `lemma4` (Base) no candidate stays valid across
    *    an update.
    */
  final def update(o: SpatialObj, obox: Box, dc: Double, dp: Double, cfg: SurgeConfig, lemma4: Boolean): Unit = {
    if (layer == 0) {
      val size = dc + dp
      if (size > 0) rects.add(o, size, isPast = dp > 0)
      else if (size < 0) rects.remove(o)
      else if (dp > 0) rects.grow(o)
    }
    us += dc
    val rise = math.max(0.0, math.max(dc - cfg.alpha * dp, (1 - cfg.alpha) * dc))
    if (rise > 0 && uds != null) {
      var s = SweepLine.stripLo(math.max(obox.y0, box.y0), box, strips)
      val e = SweepLine.stripHi(math.min(obox.y1, box.y1), box, strips)
      while (s <= e) { uds(s) += rise; ud = math.max(ud, uds(s)); s += 1 }
    }
    if (cand != null) {
      if (obox.contains(cand.x, cand.y)) {
        val fc = cand.fc + dc
        val fp = cand.fp + dp
        cand = BurstyPoint(cand.x, cand.y, fc, fp, cfg.burst(fc, fp))
      }
      candValid = lemma4 && cand.score >= ud
    }
  }

  /** SL-CSPOT over the strips that can hold a point better than the
    * candidate, or over the whole cell if it has no candidate yet or only
    * one strip (B-CCS, Base). The better of the candidate and the sweep's
    * point is the new candidate; a swept strip's `U_d` falls to its best
    * row, and every strip is clamped to the candidate's score, so the
    * candidate is valid.
    */
  final def sweep(cfg: SurgeConfig, ws: SweepLine.Workspace, stats: CspotStats): Unit = {
    if (uds == null) uds = new Array[Double](strips)
    val t   = if (cand == null || strips == 1) Double.NegativeInfinity else cand.score
    val res = rects.sweep(box, cfg, ws, uds, t, layer)
    stats.search(res)
    val p = res.point
    if (t == Double.NegativeInfinity) cand = p.getOrElse(BurstyPoint(box.x0, box.y0, 0.0, 0.0, 0.0))
    else if (p.isDefined && p.get.score > t) cand = p.get
    ud = Double.NegativeInfinity
    var s = 0
    while (s < strips) { uds(s) = math.min(uds(s), cand.score); ud = math.max(ud, uds(s)); s += 1 }
    candValid = cand.score >= ud
  }
}

private[repro] object CspotCell {

  /** The strips of a CCS or kCCS cell. */
  val Strips = 8
}

/** Cell-CSPOT (Algorithm 2): exact continuous bursty-point detection.
  *
  * A grid of `b×a` cells (Definition 6) partitions the space, and each
  * non-empty cell is a [[CspotCell]]. A [[MaxHeap]] orders cells by their
  * bound. An event updates the cells its rect touches in O(1) each: ≤ 4 in
  * general position, up to 9 when the rect's edges lie on grid lines
  * ([[Grid.foreachCell]]). A query walks cells in descending bound order,
  * re-sweeping only cells whose candidate is invalid, and stops as soon as
  * no bound exceeds the best candidate score found — the lazy update
  * strategy of Section IV-C1.
  *
  * Exactness note: every strip's `U_d` bounds the scores of the points in
  * it, so the largest bounds the cell's best score, which bounds the
  * candidate's. A valid candidate reaches it, so for valid candidates
  * `U(c) = S(c.p)` and the first valid heap top is the answer.
  */
final class CellCspot(val cfg: SurgeConfig, val mode: BoundMode = BoundMode.Full) {
  private val grid  = new Grid(cfg.rectW, cfg.rectH)
  private val cells = mutable.LongMap.empty[Cell]
  private val heap  = new MaxHeap[Cell]
  private val walk  = new SearchRegion.Walk(heap)
  private val ws    = new SweepLine.Workspace

  val stats = new CspotStats

  private final class Cell(key: Long)
      extends CspotCell(key, new CellRects, grid.cellBox(key), if (mode == BoundMode.Full) CspotCell.Strips else 1) {
    override def bound: Double = mode match {
      case BoundMode.Full       => super.bound
      case BoundMode.StaticOnly => math.max(us, 0.0)
      case BoundMode.NoBounds   => if (candValid) cand.score else Double.PositiveInfinity
    }

    def search(): Unit = sweep(cfg, ws, stats)
  }

  /** Number of live (non-empty) cells. */
  def cellCount: Int = cells.size

  /** Heap updates so far (cost accounting). */
  private[repro] def heapUpdates: Long = heap.updates

  /** Process one event and report the current bursty point (Algorithm 2). */
  def onEvent(e: Event): Option[BurstyPoint] = { process(e); query() }

  /** Apply an event's bound/candidate updates without querying — used when a
    * caller samples queries sparsely (the structures stay exact; searches
    * only happen inside `query()`).
    */
  def process(e: Event): Unit = {
    stats.message()
    val d = cfg.delta(e.obj.w)
    update(e.obj, e.kind.dCur * d, e.kind.dPast * d)
  }

  /** [[CspotCell.update]] on every cell `o` touches; a cell joins the heap
    * with its first rect and leaves it with its last.
    */
  private[repro] def update(o: SpatialObj, dc: Double, dp: Double): Unit = {
    val obox = cfg.rectBox(o)
    val join = dc + dp > 0
    grid.foreachCell(obox) { key =>
      var c = cells.getOrNull(key)
      if (c == null && join) { c = new Cell(key); cells(key) = c }
      if (c != null) {
        c.update(o, obox, dc, dp, cfg, lemma4 = mode != BoundMode.NoBounds)
        if (c.rects.size == 0) {
          cells.subtractOne(key)
          heap.remove(c)
        } else heap.update(c, c.bound)
      }
    }
  }

  /** The live rects covering `(px, py)`, through the cell index. */
  private[repro] def rectsCovering(px: Double, py: Double): Iterator[SpatialObj] = {
    val c = cells.getOrNull(grid.cellOf(px, py))
    if (c == null) Iterator.empty else c.rects.covering(px, py, cfg.rectW, cfg.rectH)
  }

  /** Current bursty point (the lazy-update search loop of Algorithm 2).
    * Idempotent; may be called as often or as rarely as the caller likes.
    */
  def query(): Option[BurstyPoint] = walk.best()
}
