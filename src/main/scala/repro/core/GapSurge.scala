package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** One grid cell reported as an approximate bursty region. */
final case class CellResult(box: Box, fc: Double, fp: Double, score: Double)

/** GAP-SURGE (Algorithm 3): grid-based approximate SURGE.
  *
  * The space is divided into `b×a` cells anchored at `(offX, offY)`; every
  * cell is a candidate region. Events update the containing cell's
  * per-window scores in O(1); a [[MaxHeap]] reports the cell with the
  * maximum burst score in `O(log n)`. Approximation ratio `(1−α)/4`
  * (Theorem 3; the ratio is tight by Lemma 7).
  *
  * Note: Algorithm 3 in the paper prints the burst score without the `α`
  * weights — an obvious typo; we score cells with Definition 1 via
  * [[SurgeConfig.burst]].
  */
final class GapSurge(val cfg: SurgeConfig, val offX: Double = 0.0, val offY: Double = 0.0) {
  private val grid  = new Grid(cfg.rectW, cfg.rectH, offX, offY)
  private val cells = mutable.LongMap.empty[CState]
  private val heap  = new MaxHeap[CState]

  private final class CState(key: Long) extends HeapEntry(key) {
    var fc: Double = 0.0
    var fp: Double = 0.0
    var live: Int  = 0 // objects of this cell still inside W_c ∪ W_p
  }

  def cellCount: Int = cells.size

  /** Apply one event (O(1) + heap update). */
  def process(e: Event): Unit = {
    val o   = e.obj
    val d   = cfg.delta(o.w)
    val key = grid.cellOf(o.x, o.y)
    var c   = cells.getOrNull(key)
    if (c == null) { c = new CState(key); cells(key) = c }
    c.fc += e.kind.dCur * d
    c.fp += e.kind.dPast * d
    c.live += e.kind.dCur + e.kind.dPast
    if (c.live == 0) { cells.subtractOne(key); heap.remove(c) } // `remove` and `-=` box the key
    else heap.update(c, cfg.burst(c.fc, c.fp))
  }

  def onEvent(e: Event): Option[CellResult] = { process(e); top }

  /** The cell with the maximum burst score (line 6 of Algorithm 3). */
  def top: Option[CellResult] = {
    val c = heap.top
    if (c == null) None else Some(result(c))
  }

  /** The score of [[top]] (a cell's heap priority is its burst score), or −∞
    * if no cell is live.
    */
  private[core] def topScore: Double = {
    val c = heap.top
    if (c == null) Double.NegativeInfinity else c.prio
  }

  /** Top-k cells by burst score (GAP-KSURGE, Algorithm 6). Cells of a single
    * grid are disjoint, so the top-k list is non-overlapping by construction.
    */
  def topK(k: Int): IndexedSeq[CellResult] = {
    val popped = ArrayBuffer.empty[CState]
    while (popped.length < k && heap.top != null) popped += heap.pop()
    popped.foreach(c => heap.update(c, c.prio))
    popped.iterator.map(result).toIndexedSeq
  }

  private def result(c: CState): CellResult =
    CellResult(grid.cellBox(c.key), c.fc, c.fp, cfg.burst(c.fc, c.fp))
}

/** MGAP-SURGE (Algorithm 5): four half-cell-shifted grids —
  * `(0,0), (b/2,0), (0,a/2), (b/2,a/2)` per Section V-B — each running
  * GAP-SURGE; the best of the four answers is reported. Approximation ratio
  * remains `(1−α)/4` (Theorem 4) but is much better in practice.
  */
final class MGapSurge(val cfg: SurgeConfig) {
  private val g0 = new GapSurge(cfg, 0.0, 0.0)
  private val g1 = new GapSurge(cfg, cfg.rectW / 2, 0.0)
  private val g2 = new GapSurge(cfg, 0.0, cfg.rectH / 2)
  private val g3 = new GapSurge(cfg, cfg.rectW / 2, cfg.rectH / 2)

  val grids: IndexedSeq[GapSurge] = IndexedSeq(g0, g1, g2, g3)

  def process(e: Event): Unit = { g0.process(e); g1.process(e); g2.process(e); g3.process(e) }

  def onEvent(e: Event): Option[CellResult] = { process(e); top }

  /** Best region among the four grids' top cells: the grid whose top scores
    * highest, the lowest-indexed one on a tie. Only the winner builds a result.
    */
  def top: Option[CellResult] = {
    var best = g0
    if (g1.topScore > best.topScore) best = g1
    if (g2.topScore > best.topScore) best = g2
    if (g3.topScore > best.topScore) best = g3
    best.top
  }

  /** MGAP-KSURGE (Algorithm 7): take the top-4k cells of each grid, merge
    * the ≤16k candidates, and greedily keep the top-k pairwise
    * non-overlapping ones (cells from different grids may overlap).
    */
  def topK(k: Int): IndexedSeq[CellResult] = {
    val merged = grids.flatMap(_.topK(4 * k)).sortBy(-_.score)
    val out    = ArrayBuffer.empty[CellResult]
    merged.foreach { c =>
      if (out.length < k && !out.exists(_.box.overlapsOpen(c.box))) out += c
    }
    out.toIndexedSeq
  }
}
