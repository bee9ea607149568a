package repro.baseline

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
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
  import EventKind._

  // Cell side as a multiple of the query rectangle: Appendix J's `10q`.
  private val cellFactor = 10.0
  private val grid = new Grid(cfg.rectW * cellFactor, cfg.rectH * cellFactor)
  private val cells = mutable.HashMap.empty[(Long, Long), mutable.LinkedHashMap[Long, SpatialObj]]
  private val reg   = mutable.HashMap.empty[Long, SpatialObj]
  private val nbrs  = mutable.HashMap.empty[Long, mutable.HashSet[Long]]
  private val ub    = mutable.HashMap.empty[Long, Double]
  private val cand  = mutable.HashMap.empty[Long, BurstyPoint]
  private val valid = mutable.HashMap.empty[Long, Boolean]
  private val heap  = new LazyMaxHeap[Long]

  val stats = new CspotStats

  // Event-driven window membership (see CellCspot): Past from the processed
  // Grown event until the Expired event removes the rect.
  private val pastIds = mutable.HashSet.empty[Long]
  private val winOf: SpatialObj => Win =
    o => if (pastIds.contains(o.id)) Win.Past else Win.Cur

  /** Current number of graph edges (space-cost accounting, Section II). */
  def edgeCount: Long = nbrs.valuesIterator.map(_.size.toLong).sum / 2

  def onEvent(e: Event): Option[BurstyPoint] = { process(e); query() }

  def process(e: Event): Unit = {
    stats.message()
    val o   = e.obj
    val d   = cfg.delta(o.w)
    val box = cfg.rectBox(o)
    e.kind match {
      case New =>
        reg(o.id) = o
        val keys = grid.cellsOverlapping(box)
        // Build the overlap edges through the cell lists.
        val ns = mutable.HashSet.empty[Long]
        keys.foreach { key =>
          cells.get(key).foreach(_.valuesIterator.foreach { m =>
            if (m.id != o.id && cfg.rectBox(m).intersectsClosed(box)) ns += m.id
          })
        }
        nbrs(o.id) = ns
        var selfUb = d
        ns.foreach { nid =>
          nbrs(nid) += o.id
          val m = reg(nid)
          if (!pastIds.contains(nid)) selfUb += cfg.delta(m.w)
          ub(nid) = ub(nid) + d
          valid(nid) = false
          heap.update(nid, ub(nid))
        }
        keys.foreach(key => cells.getOrElseUpdate(key, mutable.LinkedHashMap.empty).update(o.id, o))
        ub(o.id) = selfUb
        valid(o.id) = false
        heap.update(o.id, selfUb)
      case Grown =>
        pastIds += o.id
        val touched = nbrs(o.id).toArray :+ o.id
        touched.foreach { nid =>
          ub(nid) = ub(nid) - d
          valid(nid) = false
          heap.update(nid, ub(nid))
        }
      case Expired =>
        pastIds -= o.id
        nbrs.remove(o.id).foreach(_.foreach { nid =>
          nbrs(nid) -= o.id
          valid(nid) = false
          // o was in the past window: its weight is no longer in any bound.
        })
        grid.cellsOverlapping(box).foreach { key =>
          cells.get(key).foreach { cl =>
            cl.remove(o.id)
            if (cl.isEmpty) cells.remove(key)
          }
        }
        reg.remove(o.id); ub.remove(o.id); cand.remove(o.id); valid.remove(o.id)
        heap.remove(o.id)
    }
  }

  /** Branch-and-bound over per-rect upper bounds. Every covered point lies
    * inside some live rectangle, so the max over per-rect searches is the
    * global bursty point.
    */
  def query(): Option[BurstyPoint] = {
    var best: BurstyPoint = null
    val stash = ArrayBuffer.empty[Long]
    var done  = false
    while (!done) {
      heap.peekMax match {
        case None => done = true
        case Some((id, u)) =>
          if (best != null && u <= best.score + 1e-9) done = true
          else {
            if (!valid.getOrElse(id, false)) search(id)
            else {
              val c = cand(id)
              if (best == null || c.score > best.score) best = c
              heap.popMax
              stash += id
            }
          }
      }
    }
    stash.foreach(id => if (reg.contains(id)) heap.update(id, ub(id)))
    Option(best)
  }

  private def search(id: Long): Unit = {
    val o     = reg(id)
    val group = (nbrs(id).iterator.map(reg) ++ Iterator.single(o)).toIndexedSeq
    val res   = SweepLine.burstyPoint(group, cfg.rectBox(o), cfg, winOf)
    stats.search(res.rectCount)
    cand(id) = res.point.getOrElse(BurstyPoint(o.x, o.y, 0.0, 0.0, 0.0))
    valid(id) = true
  }
}
