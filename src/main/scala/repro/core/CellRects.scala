package repro.core

/** The rects of one grid cell as [[SweepLine.Columns]], in arrival order at
  * positions `head until end`; a removed rect leaves a `null` object.
  *
  * A cell is fed by the stream only, so it is a FIFO like `EventStream`:
  * New appends, Expired takes the head, and Grown marks the rect at cursor
  * `grown` (the first rect that may still be current) as Past, so each is
  * O(1). Only [[setLevel]], the top-k extension's level change (see
  * `KCellCspot`), finds its rect by a scan; its layers read one instance
  * through the level column. When `end` reaches the capacity, the live
  * rects are packed to the front in order, and the columns double if they
  * are more than 3/4 full.
  *
  * The orders `byX` and `byY` are sorted at the cell's first sweep, so a
  * cell that is never searched never holds them. From then on an append
  * puts its position into both with a binary search and one array copy.
  * Removed positions stay in both orders until the next sweep or pack drops
  * them, so a removal never touches them.
  */
private[core] final class CellRects extends SweepLine.Columns(1) {
  private var head  = 0
  private var end   = 0
  private var grown = 0

  /** Number of live rects. */
  var size = 0

  /** Appends `o` with weight `d`, in `W_p` if `isPast`. */
  def add(o: SpatialObj, d: Double, isPast: Boolean): Unit = {
    if (end == capacity) pack()
    val p = end
    end += 1
    set(p, o, d, isPast)
    if (byX != null) {
      insert(byX, xs, p)
      insert(byY, ys, p)
      ordered += 1
    }
    size += 1
  }

  /** Removes rect `o`. */
  def remove(o: SpatialObj): Unit = {
    objs(find(o, head)) = null
    size -= 1
    while (head < end && objs(head) == null) head += 1
    skipGrown()
  }

  /** Moves rect `o` to `W_p`. */
  def grow(o: SpatialObj): Unit = {
    past(find(o, grown)) = true
    skipGrown()
  }

  /** Sets the level of rect `o` to `l`; the first call allocates `lv`. */
  def setLevel(o: SpatialObj, l: Int): Unit = {
    if (lv == null) { lv = new Array[Int](capacity); java.util.Arrays.fill(lv, Int.MaxValue) }
    lv(find(o, head)) = l
  }

  /** The live rects of layer `layer`, in arrival order. */
  def live(layer: Int): Iterator[SpatialObj] =
    Iterator.range(head, end).filter(p => objs(p) != null && (lv == null || lv(p) > layer)).map(objs(_))

  /** The live rects whose `w×h` box covers `(px, py)`, in arrival order. */
  def covering(px: Double, py: Double, w: Double, h: Double): Iterator[SpatialObj] = {
    val os = objs
    val x  = xs
    val y  = ys
    Iterator.range(head, end)
      .filter(p => os(p) != null && x(p) <= px && px <= x(p) + w && y(p) <= py && py <= y(p) + h)
      .map(os(_))
  }

  /** SL-CSPOT over layer `layer`'s rects within `box`, confined to the
    * strips whose bound in `bounds` exceeds `t`.
    */
  def sweep(box: Box, cfg: SurgeConfig, ws: SweepLine.Workspace, bounds: Array[Double], t: Double,
            layer: Int): SweepLine.SweepResult = {
    if (byX == null) { pack(); sortOrders(size, ws) }
    else if (ordered > size) { dropRemoved(byX); ordered = dropRemoved(byY) }
    SweepLine.sweep(this, box, cfg, ws, bounds, t, layer)
  }

  /** Position of rect `o`. Slots are compared by reference, which reads no
    * object: from `hint` (where a stream-fed cell has it) to `end`, then
    * from `head`. A caller passing an equal copy is found by id.
    */
  private def find(o: SpatialObj, hint: Int): Int = {
    var p = hint
    while (p < end && !(objs(p) eq o)) p += 1
    if (p < end) return p
    p = head
    while (p < hint && !(objs(p) eq o)) p += 1
    if (p < hint) return p
    p = head
    while (p < end && (objs(p) == null || objs(p).id != o.id)) p += 1
    if (p == end) throw new NoSuchElementException(s"rect ${o.id} is not in this cell")
    p
  }

  private def skipGrown(): Unit = {
    if (grown < head) grown = head
    while (grown < end && (objs(grown) == null || past(grown))) grown += 1
  }

  /** Puts position `p` into `by` after every position whose key is at most
    * `key(p)`, so ties stay in position order.
    */
  private def insert(by: Array[Int], key: Array[Double], p: Int): Unit = {
    val v  = key(p)
    var lo = 0
    var hi = ordered
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (key(by(mid)) <= v) lo = mid + 1 else hi = mid
    }
    System.arraycopy(by, lo, by, lo + 1, ordered - lo)
    by(lo) = p
  }

  /** Drops removed positions from the first `ordered` entries of `by`;
    * returns how many are left.
    */
  private def dropRemoved(by: Array[Int]): Int = {
    var k = 0
    var i = 0
    while (i < ordered) {
      if (objs(by(i)) != null) { by(k) = by(i); k += 1 }
      i += 1
    }
    k
  }

  /** Moves the live rects to positions `0 until size`, in order, renumbers
    * both orders, then doubles the columns if they are more than 3/4 full.
    * Without a hole the rects are already there.
    */
  private def pack(): Unit = {
    if (head > 0 || end > size) compact()
    if (4 * size > 3 * capacity) resize(2 * capacity)
  }

  private def compact(): Unit = {
    val to = new Array[Int](end) // new position, or −1 for a removed one
    java.util.Arrays.fill(to, -1)
    var k = 0
    var g = 0
    var p = head
    while (p < end) {
      if (objs(p) != null) {
        to(p) = k
        objs(k) = objs(p); xs(k) = xs(p); ys(k) = ys(p); ds(k) = ds(p); past(k) = past(p)
        if (lv != null) lv(k) = lv(p)
        if (p < grown) g += 1
        k += 1
      }
      p += 1
    }
    java.util.Arrays.fill(objs.asInstanceOf[Array[AnyRef]], k, end, null)
    if (byX != null) {
      renumber(byX, to)
      ordered = renumber(byY, to)
    }
    head = 0
    end = k
    grown = g
  }

  /** Renumbers the first `ordered` entries of `by` through `to`, dropping
    * removed positions; returns how many are left.
    */
  private def renumber(by: Array[Int], to: Array[Int]): Int = {
    var k = 0
    var i = 0
    while (i < ordered) {
      val q = to(by(i))
      if (q >= 0) { by(k) = q; k += 1 }
      i += 1
    }
    k
  }
}
