package repro.core

/** SL-CSPOT (Algorithm 1): exact bursty-point search on a snapshot.
  *
  * Given the rectangle objects alive in `W_c ∪ W_p` at time `now`, find a
  * point inside `box` maximising the burst score. The burst-score field is
  * piecewise constant over the disjoint regions induced by rectangle edges
  * (Theorem 2). With closed rectangles the candidate set must represent
  * every *face, edge and vertex* of that arrangement — not just
  * left-edge×top-edge corners: past-window rectangles contribute
  * negatively, so the maximum can sit strictly inside a face (sliding a
  * point onto an edge may acquire a past rect and lower its score), while
  * touching current rectangles make edge loci strictly better than both
  * adjacent faces. We therefore use, per axis, every clipped edge
  * coordinate plus the midpoint of each pair of consecutive coordinates;
  * coverage is axis-wise constant between consecutive edge coordinates, so
  * this hits every distinct score class. Points covered by nothing score 0
  * and every candidate scores ≥ 0, so they need no representative.
  *
  * The implementation sweeps a horizontal line top-down over the candidate
  * ys. A rect is added to a contiguous range of candidate xs when the line
  * reaches its top edge and taken out once the line is strictly below its
  * bottom edge. For every α ∈ [0,1) the burst score is
  * `S = max(f_c − α·f_p, (1−α)·f_c)`, and both terms are linear in
  * `(f_c, f_p)`, so a segment tree over the candidate xs that keeps both
  * maxima per node (the MaxRS sweep) does each range add in `O(log n)` and
  * gives a row's best score at its root: `O(n log n)` per invocation, where
  * the paper's Algorithm 1 rescans every candidate x on every row in
  * `O(n²)`.
  *
  * Tie order: a row replaces the best point only when its maximum exceeds
  * it by more than `1e-12`, and then with its leftmost maximiser, so the
  * answer is the topmost row's leftmost point among the maximisers.
  */
object SweepLine {

  /** Result of one sweep: the best point (None iff no live rect intersects
    * `box`) and the number of rectangles actually swept (the paper's
    * `|c|` — used for search-cost accounting).
    */
  final case class SweepResult(point: Option[BurstyPoint], rectCount: Int)

  /** Wall-clock classification (snapshot semantics): windows derived from
    * `now` via [[Win.of]]. The continuous structures instead pass an explicit
    * event-driven classifier — see the other overload — because mid-batch
    * (several events sharing one firing timestamp) their incremental state
    * transitions membership at event-processing time, not wall-clock time.
    */
  def burstyPoint(all: Iterable[SpatialObj], box: Box, now: Long, cfg: SurgeConfig): SweepResult =
    burstyPoint(all, box, cfg, o => Win.of(o.t, now, cfg.windowMillis))

  def burstyPoint(all: Iterable[SpatialObj], box: Box, cfg: SurgeConfig,
                  winOf: SpatialObj => Win): SweepResult = {
    // Live rectangles meeting the search box: clipped edges (left and right
    // at 2i, 2i+1 of `xe`, bottom and top in `ye`), weight and window.
    val cap = all.size
    val xe  = new Array[Double](2 * cap)
    val ye  = new Array[Double](2 * cap)
    val d   = new Array[Double](cap)
    val cur = new Array[Boolean](cap)
    var n   = 0
    all.foreach { o =>
      if (o.x <= box.x1 && box.x0 <= o.x + cfg.rectW && o.y <= box.y1 && box.y0 <= o.y + cfg.rectH) {
        val w = winOf(o)
        if (w != Win.Out) {
          xe(2 * n) = math.max(o.x, box.x0); xe(2 * n + 1) = math.min(o.x + cfg.rectW, box.x1)
          ye(2 * n) = math.max(o.y, box.y0); ye(2 * n + 1) = math.min(o.y + cfg.rectH, box.y1)
          d(n) = cfg.delta(o.w); cur(n) = w == Win.Cur
          n += 1
        }
      }
    }
    if (n == 0) return SweepResult(None, 0)

    // Candidate coordinates per axis: the distinct clipped edges, with
    // position 2e standing for edge e and 2e+1 for the midpoint of e, e+1.
    val xs   = java.util.Arrays.copyOf(xe, 2 * n)
    val ys   = java.util.Arrays.copyOf(ye, 2 * n)
    val kx   = sortDistinct(xs)
    val ky   = sortDistinct(ys)
    val rows = 2 * ky - 1

    // Each rect's x range, and its edge events over the top-down rows as
    // packed `row << 32 | slot`: slot i adds rect i at the row of its top
    // edge, slot n + i removes it at the first row below its bottom edge.
    val xlo = new Array[Int](n)
    val xhi = new Array[Int](n)
    val ev  = new Array[Long](2 * n)
    var i   = 0
    while (i < n) {
      xlo(i) = 2 * lowerBound(xs, kx, xe(2 * i))
      xhi(i) = 2 * lowerBound(xs, kx, xe(2 * i + 1))
      val top = rows - 1 - 2 * lowerBound(ys, ky, ye(2 * i + 1))
      val bot = rows - 2 * lowerBound(ys, ky, ye(2 * i))
      ev(2 * i) = top.toLong << 32 | i
      ev(2 * i + 1) = bot.toLong << 32 | (n + i)
      i += 1
    }
    java.util.Arrays.sort(ev)

    val tree = new MaxTree(2 * kx - 1, cfg.alpha)
    var best: BurstyPoint = null
    var e = 0
    var row = 0
    while (row < rows) {
      while (e < ev.length && (ev(e) >>> 32).toInt == row) {
        val slot = ev(e).toInt
        val r    = if (slot < n) slot else slot - n
        val dr   = if (slot < n) d(r) else -d(r)
        if (cur(r)) tree.add(xlo(r), xhi(r), dr, 0.0) else tree.add(xlo(r), xhi(r), 0.0, dr)
        e += 1
      }
      if (best == null || tree.max > best.score + 1e-12) {
        val j = tree.argmax()
        val s = cfg.burst(tree.fc, tree.fp)
        if (best == null || s > best.score + 1e-12)
          best = BurstyPoint(coord(xs, j), coord(ys, rows - 1 - row), tree.fc, tree.fp, s)
      }
      row += 1
    }
    SweepResult(Some(best), n)
  }

  /** Sorts `a` and moves its distinct values to the front; returns their count. */
  private def sortDistinct(a: Array[Double]): Int = {
    java.util.Arrays.sort(a)
    var k = 1
    var i = 1
    while (i < a.length) {
      if (a(i) != a(k - 1)) { a(k) = a(i); k += 1 }
      i += 1
    }
    k
  }

  /** Position of value `v` among the `k` distinct values at the front of
    * `a` (the first at least `v`).
    */
  private def lowerBound(a: Array[Double], k: Int, v: Double): Int = {
    var lo = 0
    var hi = k
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) >= v) hi = mid else lo = mid + 1
    }
    lo
  }

  /** Candidate at position `p`: edge `p/2`, or the midpoint after it if `p` is odd. */
  private def coord(edges: Array[Double], p: Int): Double =
    if ((p & 1) == 0) edges(p >> 1) else (edges(p >> 1) + edges((p >> 1) + 1)) / 2

  /** Range-add segment tree over `m` leaves, each holding `(f_c, f_p)`.
    * A node keeps its own adds `addC`/`addP` (never pushed down) and the
    * maxima over its subtree of `f_c − α·f_p` (`mxA`) and of `(1−α)·f_c`
    * (`mxB`), counting the adds at the node and below it. Padding leaves are
    * −∞, so they never win.
    */
  private final class MaxTree(m: Int, alpha: Double) {
    private val size = if (m <= 1) 1 else Integer.highestOneBit(m - 1) << 1
    private val addC = new Array[Double](2 * size)
    private val addP = new Array[Double](2 * size)
    private val mxA  = new Array[Double](2 * size)
    private val mxB  = new Array[Double](2 * size)
    java.util.Arrays.fill(mxA, size + m, 2 * size, Double.NegativeInfinity)
    java.util.Arrays.fill(mxB, size + m, 2 * size, Double.NegativeInfinity)
    for (v <- size - 1 to 1 by -1) pull(v)

    /** `(f_c, f_p)` of the leaf the last [[argmax]] returned. */
    var fc, fp = 0.0

    /** The best burst score over all leaves. */
    def max: Double = math.max(mxA(1), mxB(1))

    /** Adds `(dc, dp)` to leaves `lo..hi`. */
    def add(lo: Int, hi: Int, dc: Double, dp: Double): Unit = add(1, 0, size - 1, lo, hi, dc, dp)

    private def add(v: Int, vl: Int, vr: Int, lo: Int, hi: Int, dc: Double, dp: Double): Unit = {
      if (lo <= vl && vr <= hi) { addC(v) += dc; addP(v) += dp }
      else {
        val mid = (vl + vr) >>> 1
        if (lo <= mid) add(2 * v, vl, mid, lo, hi, dc, dp)
        if (hi > mid) add(2 * v + 1, mid + 1, vr, lo, hi, dc, dp)
      }
      pull(v)
    }

    private def pull(v: Int): Unit = {
      val a = if (v >= size) 0.0 else math.max(mxA(2 * v), mxA(2 * v + 1))
      val b = if (v >= size) 0.0 else math.max(mxB(2 * v), mxB(2 * v + 1))
      mxA(v) = a + (addC(v) - alpha * addP(v))
      mxB(v) = b + (1 - alpha) * addC(v)
    }

    /** The leftmost leaf with the best score. A child's maxima exclude its
      * ancestors' adds, so each term gets its own offset before the children
      * are compared.
      */
    def argmax(): Int = {
      var v = 1
      var c = addC(1)
      var p = addP(1)
      while (v < size) {
        val offA = c - alpha * p
        val offB = (1 - alpha) * c
        val l    = 2 * v
        val sl   = math.max(mxA(l) + offA, mxB(l) + offB)
        val sr   = math.max(mxA(l + 1) + offA, mxB(l + 1) + offB)
        v = if (sr > sl) l + 1 else l
        c += addC(v); p += addP(v)
      }
      fc = c; fp = p
      v - size
    }
  }
}
