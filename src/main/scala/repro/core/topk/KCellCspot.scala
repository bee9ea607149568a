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
  *  - when `p[i]` moves, a level-i rect that misses the new `p[i]` is
  *    released to level k and re-inserted into layers i+1..k;
  *  - a cell untouched by any of this keeps its bounds and candidates in
  *    every layer.
  */
final class KCellCspot(val cfg: SurgeConfig, val k: Int) {
  require(k >= 1)

  // layers(i - 1) holds exactly the live rects of level ≥ i.
  private val layers = Array.fill(k)(new CellCspot(cfg, BoundMode.Full))
  // Every live rect's level; `setLevel` is the only method that changes it.
  // After step i of an event, the level-i rects are exactly layer i-1's rects
  // covering p[i], so they are found through that layer's cell index.
  private val lvl    = mutable.LongMap.empty[Int]
  private val points = Array.fill[Option[BurstyPoint]](k)(None)
  // The live rects in `W_p`, so that `setLevel` re-inserts into the right window.
  private val pastIds = mutable.HashSet.empty[Long]

  /** Total SL-CSPOT invocations across all layers (cost accounting). */
  def searches: Long = layers.map(_.stats.searches).sum

  /** Process one event and return the current top-k bursty points
    * (`None` entries when fewer than i covered points exist).
    */
  def onEvent(e: Event): IndexedSeq[Option[BurstyPoint]] = {
    val o = e.obj
    if (e.kind.dPast > 0) pastIds += o.id
    else if (e.kind.dPast < 0) pastIds -= o.id
    val l = lvl.getOrElseUpdate(o.id, k)
    var j = 0
    while (j < l) { layers(j).process(e); j += 1 }
    if (e.kind == EventKind.Expired) lvl.remove(o.id)

    var i = 1
    while (i <= k) {
      val old = points(i - 1)
      val p   = layers(i - 1).query()
      points(i - 1) = p
      if (i < k) {
        // Layer i-1 holds every rect of level ≥ i, so the level-i rects are
        // its rects covering the old p[i], and one leaves p[i]'s cover set
        // iff its box misses the new p[i]. Releasing and pinning to i edit
        // only layers i.., so layer i-1 can be iterated lazily.
        old.foreach { q =>
          if (!p.exists(bp => bp.x == q.x && bp.y == q.y))
            layers(i - 1).rectsCovering(q.x, q.y)
              .filter(r => lvl(r.id) == i && !p.exists(bp => cfg.rectBox(r).contains(bp.x, bp.y)))
              .foreach(setLevel(_, k))
        }
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
    lvl(o.id) = to
    val past = pastIds.contains(o.id)
    var j = math.min(from, to)
    while (j < math.max(from, to)) { layers(j).synthetic(o, insert = to > from, past); j += 1 }
  }
}
