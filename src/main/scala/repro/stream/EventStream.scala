package repro.stream

import scala.collection.mutable
import repro.core._

/** The stream substrate: turns a timestamp-ordered stream of spatial
  * objects into the interleaved `New` / `Grown` / `Expired` event sequence
  * of Section IV-C.
  *
  * For an object created at `t_c` with window length `|W|`:
  * the `New` event fires at `t_c`, the `Grown` event (current → past) at
  * `t_c + |W|`, and the `Expired` event at `t_c + 2|W|`. Pending transitions
  * are released before any arrival with an equal-or-later timestamp, so
  * every algorithm observes windows `W_c = (t−|W|, t]`,
  * `W_p = (t−2|W|, t−|W|]` exactly. At equal firing times, `Expired`
  * precedes `Grown` precedes `New`; ties beyond that break by arrival
  * order, making the sequence fully deterministic.
  *
  * Because arrivals come in `t` order, both transition kinds are already
  * due in arrival order: one FIFO of live objects holds them all. Its head
  * is the next to expire and the element at index `grown` the next to grow.
  */
object EventStream {

  /** Lazily interleave transitions with arrivals.
    *
    * @param objs      arrivals in non-decreasing `t` order, with finite
    *                  coordinates and finite `w > 0`; any other arrival
    *                  throws `IllegalArgumentException` when it is reached
    * @param windowMillis window length `|W|`
    * @param drainTail whether to emit the Grown/Expired events that fall
    *                  after the last arrival (true = windows slide to empty)
    */
  def fromObjects(objs: Iterable[SpatialObj], windowMillis: Long,
                  drainTail: Boolean = true): Iterator[Event] = new Iterator[Event] {
    require(windowMillis > 0, s"window must be positive, got $windowMillis")
    private val it    = objs.iterator
    private val live  = mutable.ArrayDeque.empty[SpatialObj]
    private var grown = 0
    private var lastT = Long.MinValue
    private var nextArrival: SpatialObj = advance()

    private def advance(): SpatialObj =
      if (!it.hasNext) null
      else {
        val o = it.next()
        require(o.t >= lastT, s"object ${o.id} arrives at t=${o.t}, before the previous arrival at t=$lastT")
        require(o.x.isFinite && o.y.isFinite, s"object ${o.id} has a non-finite position (${o.x}, ${o.y})")
        require(o.w.isFinite && o.w > 0, s"object ${o.id} has weight ${o.w}; weights must be finite and > 0")
        lastT = o.t
        o
      }

    def hasNext: Boolean = nextArrival != null || (drainTail && live.nonEmpty)

    def next(): Event = {
      val expireDue = if (live.isEmpty) Long.MaxValue else live.head.t + 2 * windowMillis
      val growDue   = if (grown == live.length) Long.MaxValue else live(grown).t + windowMillis
      val o = nextArrival
      if (o != null && o.t < expireDue && o.t < growDue) {
        nextArrival = advance()
        live.append(o)
        Event(o, EventKind.New, o.t)
      } else if (expireDue <= growDue) {
        grown -= 1 // the head grew before it could expire
        Event(live.removeHead(), EventKind.Expired, expireDue)
      } else {
        grown += 1
        Event(live(grown - 1), EventKind.Grown, growDue)
      }
    }
  }
}
