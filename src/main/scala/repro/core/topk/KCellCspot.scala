package repro.core.topk

import scala.collection.mutable
import repro.core._

/** CCS-KSURGE (Algorithm 4): continuous top-k bursty point detection.
  *
  * The top-k problem is reduced to `k` CSPOT problems (Section VI): the i-th
  * problem sees only the rectangle objects whose *level* is ≥ i, where the
  * level of a rect is the order of the first selected point it covers (k if
  * it covers none). We materialise each problem as its own lazily-maintained
  * [[CellCspot]] layer, so all of Algorithm 2's sharing (upper bounds,
  * candidate points, lazy search) applies per layer, and level changes are
  * propagated to higher layers as synthetic insert/remove updates — the
  * computation-sharing scheme of Section VI-B:
  *  - a rect that starts covering `p[i]` is pinned to level i and removed
  *    from layers i+1..oldLevel;
  *  - a rect that stops covering `p[i]` is released to level k and
  *    re-inserted into layers i+1..k;
  *  - a cell untouched by any of this keeps its bounds and candidates in
  *    every layer.
  */
final class KCellCspot(val cfg: SurgeConfig, val k: Int) {
  require(k >= 1)

  // layers(i - 1) holds exactly the live rects of level ≥ i. Layer 0 holds
  // every live rect and sees every event, so it answers window membership.
  private val layers = Array.fill(k)(new CellCspot(cfg, BoundMode.Full))
  // pinned(i) = {o : lvl(o.id) = i} for 1 ≤ i < k; `setLevel` is the only
  // method that changes a live rect's level. Level k needs no set: layer k-1
  // is the last, so covering p[k] and covering nothing look the same.
  private val lvl    = mutable.HashMap.empty[Long, Int]
  private val pinned = Array.fill(k)(mutable.LinkedHashMap.empty[Long, SpatialObj])
  private val points = Array.fill[Option[BurstyPoint]](k)(None)

  /** Total SL-CSPOT invocations across all layers (cost accounting). */
  def searches: Long = layers.map(_.stats.searches).sum

  /** Process one event and return the current top-k bursty points
    * (`None` entries when fewer than i covered points exist).
    */
  def onEvent(e: Event): IndexedSeq[Option[BurstyPoint]] = {
    val o = e.obj
    val l = lvl.getOrElseUpdate(o.id, k)
    var j = 0
    while (j < l) { layers(j).process(e); j += 1 }
    if (e.kind == EventKind.Expired) {
      lvl.remove(o.id)
      if (l < k) pinned(l).remove(o.id)
    }

    var i = 1
    while (i <= k) {
      val p = layers(i - 1).query()
      points(i - 1) = p
      if (i < k) {
        // Layer i-1 holds every rect of level ≥ i, so a rect pinned at i has
        // left p[i]'s cover set iff its box no longer contains p[i]. The
        // releases are copied out because setLevel edits pinned(i); pinning
        // to i only edits layers i.., so layer i-1 can be iterated lazily.
        pinned(i).valuesIterator
          .filterNot(r => p.exists(bp => cfg.rectBox(r).contains(bp.x, bp.y)))
          .toList.foreach(setLevel(_, k))
        p.foreach { bp =>
          layers(i - 1).rectsCovering(bp.x, bp.y).filter(r => lvl(r.id) > i).foreach(setLevel(_, i))
        }
      }
      i += 1
    }
    current
  }

  /** Current top-k without processing an event. */
  def current: IndexedSeq[Option[BurstyPoint]] = points.toIndexedSeq

  /** Moves live rect `o` to level `to`: it appears in (or vanishes from)
    * the layers between its old and new level, in the window it is in.
    */
  private def setLevel(o: SpatialObj, to: Int): Unit = {
    val from = lvl(o.id)
    if (from < k) pinned(from).remove(o.id)
    if (to < k) pinned(to)(o.id) = o
    lvl(o.id) = to
    val past = layers(0).isPast(o.id)
    var j = math.min(from, to)
    while (j < math.max(from, to)) { layers(j).synthetic(o, insert = to > from, past); j += 1 }
  }
}
