package repro

import scala.collection.mutable
import repro.core._

/** Maintains the live objects (W_c ∪ W_p) with their *processed-event*
  * window membership — used by the naive top-k comparator and by
  * replay-style tests. Several events can share a firing timestamp
  * (e.g. a Grown due exactly when an Expired fires); mid-batch, the
  * event-at-a-time structures legitimately differ from a `Win.of(now)`
  * recomputation, so the oracle must derive membership from the events
  * actually processed. `objectsAt` returns the live objects with
  * timestamps adjusted so that `Win.of(t, now)` reproduces exactly that
  * membership, making every BruteForce helper usable unchanged.
  */
final class LiveSet(val windowMillis: Long) {
  val cur  = mutable.LinkedHashMap.empty[Long, SpatialObj]
  val past = mutable.LinkedHashMap.empty[Long, SpatialObj]

  def apply(e: Event): Unit = e.kind match {
    case EventKind.New     => cur(e.obj.id) = e.obj
    case EventKind.Grown   => cur.remove(e.obj.id).foreach(o => past(o.id) = o)
    case EventKind.Expired => past.remove(e.obj.id); cur.remove(e.obj.id)
  }

  def size: Int = cur.size + past.size

  /** Live objects whose adjusted timestamps encode the processed state. */
  def objectsAt(now: Long): IndexedSeq[SpatialObj] =
    (cur.valuesIterator.map(_.copy(t = now)) ++
      past.valuesIterator.map(_.copy(t = now - windowMillis))).toIndexedSeq
}
