package repro.core

/** An element of a [[MaxHeap]]. It carries its own priority and array slot,
  * so the heap needs no side map; `key` breaks priority ties. Keys need not
  * be unique: kCCS's private copies of a cell share its key.
  */
abstract class HeapEntry(val key: Long) {
  private[core] var prio: Double = 0.0
  private[core] var slot: Int = -1
}

/** The binary max-heap behind "a heap over cells by upper bound / burst
  * score" (Sections IV-C, V-A). Entries sift in place when their priority
  * changes. Order: priority descending, then key ascending, so the top is a
  * function of the heap's contents, not of the order of updates, up to
  * entries with equal priority and key (a kCCS cell and its copies).
  */
final class MaxHeap[E <: HeapEntry] {
  private var a = new Array[HeapEntry](16)
  private var n = 0

  def size: Int = n

  /** Calls to [[update]] so far (cost accounting). */
  private[repro] var updates: Long = 0L

  /** The first entry in heap order, or `null` if the heap is empty. */
  def top: E = a(0).asInstanceOf[E]

  /** The entry at slot `i`, for `0 ≤ i < size`. Slot 0 is the top, and the
    * children of slot `i` are slots `2i+1` and `2i+2`, each after it in heap
    * order: a walk from slot 0 reads the heap in order without moving it.
    */
  def apply(i: Int): E = a(i).asInstanceOf[E]

  /** The best priority below the top (that of its larger child), or −∞ if
    * the top is alone.
    */
  def belowTop: Double =
    if (n < 2) Double.NegativeInfinity
    else if (n == 2) a(1).prio
    else math.max(a(1).prio, a(2).prio)

  /** Insert `e` at priority `p`, or move it there if it is in the heap
    * (where it already is if `p` is its priority).
    */
  def update(e: E, p: Double): Unit = {
    updates += 1
    if (e.slot >= 0 && e.prio == p) return
    if (e.slot < 0) {
      if (n == a.length) a = java.util.Arrays.copyOf(a, 2 * n)
      place(e, n)
      n += 1
    }
    e.prio = p
    sift(e.slot)
  }

  /** Take `e` out of the heap; a no-op if it is not in it. */
  def remove(e: E): Unit = if (e.slot >= 0) {
    val i = e.slot
    n -= 1
    e.slot = -1
    val last = a(n)
    a(n) = null
    if (i < n) { place(last, i); sift(i) }
  }

  /** Remove and return the top entry, or `null` if the heap is empty. */
  def pop(): E = { val e = top; if (e != null) remove(e); e }

  /** Whether the entry at slot `i` comes before the one at slot `j`. */
  private[core] def before(i: Int, j: Int): Boolean = above(a(i), a(j))

  private def above(x: HeapEntry, y: HeapEntry): Boolean =
    x.prio > y.prio || x.prio == y.prio && x.key < y.key

  private def place(e: HeapEntry, i: Int): Unit = { a(i) = e; e.slot = i }

  // Moves the entry at `i0` up past lower parents, then down past higher children.
  private def sift(i0: Int): Unit = {
    val e = a(i0)
    var i = i0
    while (i > 0 && above(e, a((i - 1) / 2))) { place(a((i - 1) / 2), i); i = (i - 1) / 2 }
    var c = 2 * i + 1
    while (c < n) {
      if (c + 1 < n && above(a(c + 1), a(c))) c += 1
      if (above(a(c), e)) { place(a(c), i); i = c; c = 2 * i + 1 } else c = n
    }
    place(e, i)
  }
}
