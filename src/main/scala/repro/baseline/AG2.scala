package repro.baseline

import scala.collection.{mutable, View}
import repro.core._

/** Modified aG2 (Amagata & Hara, EDBT 2016), adapted to the SURGE burst
  * score per Appendix J of the paper.
  *
  * Index: a coarse grid whose cell size is a multiple of the query rectangle
  * (the paper's experiments use `10q`); each rectangle object is mapped to
  * the cells it overlaps. Per cell, a *graph* connects overlapping rectangle
  * objects — this is the structure with the `O(n²)` worst-case space the
  * paper criticises; we store it as adjacency sets. Each rectangle `g`
  * carries an upper bound on the burst score of any point inside `g`
  * (the current-window weight of `g` and all of its neighbours), and a
  * branch-and-bound loop searches rectangles in descending bound order,
  * invoking SL-CSPOT inside `g`'s own box (Appendix J replaces the original
  * sweep with SL-CSPOT) until no bound exceeds the best score found.
  * Cached per-rect candidates are conservatively invalidated by any
  * overlapping event.
  */
final class AG2(val cfg: SurgeConfig) {
  // Cell side as a multiple of the query rectangle: Appendix J's `10q`.
  private val cellFactor = 10.0
  private val grid  = new Grid(cfg.rectW * cellFactor, cfg.rectH * cellFactor)
  private val cells = mutable.LongMap.empty[mutable.LinkedHashMap[Long, SpatialObj]]
  private val nodes = mutable.LongMap.empty[Node]
  private val heap  = new MaxHeap[Node]
  private val walk  = new SearchRegion.Walk(heap)
  private val ws    = new SweepLine.Workspace

  val stats = new CspotStats

  // Event-driven window membership (see CellCspot): Past from the processed
  // Grown event until the Expired event removes the rect.
  private val pastIds = mutable.HashSet.empty[Long]
  private val winOf: SpatialObj => Win =
    o => if (pastIds.contains(o.id)) Win.Past else Win.Cur

  /** One live rect of the graph: its overlapping neighbours, its bound (the
    * current-window weight of itself and its neighbours) and its candidate.
    */
  private final class Node(val o: SpatialObj) extends SearchRegion(o.id) {
    val nbrs = mutable.HashSet.empty[Long]
    var ub: Double = 0.0
    var cand: BurstyPoint = _
    var candValid: Boolean = false

    def bound: Double = ub

    def search(): Unit = {
      // A view that knows its size, so the sweep sizes its arrays without a pass.
      val group = new View.Map(nbrs, (id: Long) => nodes(id).o) ++ new View.Single(o)
      val res   = SweepLine.burstyPoint(group, cfg.rectBox(o), cfg, winOf, ws)
      stats.search(res)
      cand = res.point.getOrElse(BurstyPoint(o.x, o.y, 0.0, 0.0, 0.0))
      candValid = true
    }
  }

  /** Current number of graph edges (space-cost accounting, Section II). */
  def edgeCount: Long = nodes.valuesIterator.map(_.nbrs.size.toLong).sum / 2

  def onEvent(e: Event): Option[BurstyPoint] = { process(e); query() }

  /** `o`'s weight moves by `dc` in `W_c` and `dp` in `W_p`: `o` joins the
    * graph when `dc + dp > 0` and leaves it when `< 0`; its own bound and
    * its neighbours' move by `dc` and their candidates become invalid.
    */
  def process(e: Event): Unit = {
    stats.message()
    val o   = e.obj
    val d   = cfg.delta(o.w)
    val dc  = e.kind.dCur * d
    val dp  = e.kind.dPast * d
    val box = cfg.rectBox(o)
    if (dp > 0) pastIds += o.id
    else if (dp < 0) pastIds -= o.id
    if (dc + dp > 0) {
      // Build the overlap edges through the cell lists, scanning each cell
      // before `o` joins it.
      val n = new Node(o)
      grid.foreachCell(box) { key =>
        val cl = cells.getOrElseUpdate(key, mutable.LinkedHashMap.empty)
        cl.valuesIterator.foreach(m => if (cfg.rectBox(m).intersectsClosed(box)) n.nbrs += m.id)
        cl(o.id) = o
      }
      n.nbrs.foreach { nid =>
        val m = nodes(nid)
        m.nbrs += o.id
        if (!pastIds.contains(nid)) n.ub += cfg.delta(m.o.w)
      }
      nodes(o.id) = n
    }
    val self = nodes(o.id)
    (self.nbrs.iterator.map(nodes) ++ Iterator.single(self)).foreach { n =>
      n.ub += dc
      n.candValid = false
      heap.update(n, n.ub)
    }
    if (dc + dp < 0) {
      self.nbrs.foreach(nid => nodes(nid).nbrs -= o.id)
      grid.foreachCell(box) { key =>
        val cl = cells(key)
        cl.remove(o.id)
        if (cl.isEmpty) cells.remove(key)
      }
      nodes.remove(o.id)
      heap.remove(self)
    }
  }

  /** Branch-and-bound over per-rect upper bounds. Every covered point lies
    * inside some live rectangle, so the max over per-rect searches is the
    * global bursty point.
    */
  def query(): Option[BurstyPoint] = walk.best()
}
