package repro.core

import scala.collection.mutable

/** A max-priority index over keys with *lazy* stale-entry elimination.
  *
  * Both Cell-CSPOT and GAP-SURGE maintain "a heap over cells by upper bound /
  * burst score" (Sections IV-C, V-A). Priorities change on every event, so a
  * binary heap with immutable entries plus a side map of current priorities
  * is the standard idiom: `update` pushes a fresh entry, `peekMax` discards
  * entries whose stored priority no longer matches the map. The heap is
  * rebuilt when stale entries outnumber live ones 4:1.
  */
final class LazyMaxHeap[K] {
  private val prio = mutable.HashMap.empty[K, Double]
  private var heap = mutable.PriorityQueue.empty[(Double, K)](Ordering.by(_._1))

  /** Number of live keys. */
  def size: Int = prio.size

  /** Insert `k` or change its priority. */
  def update(k: K, p: Double): Unit = {
    prio(k) = p
    heap.enqueue((p, k))
    if (heap.size > 64 && heap.size > 4 * prio.size) rebuild()
  }

  /** Remove `k` entirely (its heap entries become stale). */
  def remove(k: K): Unit = prio.remove(k)

  /** Key with the maximum current priority, without removing it. */
  def peekMax: Option[(K, Double)] = {
    dropStale()
    heap.headOption.map { case (p, k) => (k, p) }
  }

  /** Remove and return the key with the maximum current priority. */
  def popMax: Option[(K, Double)] = {
    dropStale()
    if (heap.isEmpty) None
    else {
      val (p, k) = heap.dequeue()
      prio.remove(k)
      Some((k, p))
    }
  }

  private def dropStale(): Unit = {
    while (heap.nonEmpty && !prio.get(heap.head._2).contains(heap.head._1))
      heap.dequeue()
  }

  private def rebuild(): Unit = {
    heap = mutable.PriorityQueue.empty[(Double, K)](Ordering.by(_._1))
    prio.foreach { case (k, p) => heap.enqueue((p, k)) }
  }
}
