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
  * `(f_c, f_p)`. A range add is two steps of the prefix sums (`+d` at its
  * first candidate x, `−d` after its last), so a [[MaxTree]] over per-leaf
  * steps that keeps the best prefix of both terms per node does each add in
  * `O(log n)` and gives a row's best score at its root: `O(n log n)` per
  * invocation, where the paper's Algorithm 1 rescans every candidate x on
  * every row in `O(n²)`. A step at the first candidate goes to a base
  * outside the tree and none is needed after the last, and a `b×a` rect
  * that meets a `b×a` box contains one of the box's x-edges, so for a cell
  * box or a rect-sized one every add and remove is one root walk. The rects
  * active at the first row swept are in from the start: their steps go
  * straight into the leaves and the tree is built once, in `O(n)`.
  *
  * A sweep may be confined to some of the box's equal horizontal strips:
  * `CspotCell` keeps an Eqn 3 bound per strip and sweeps only the rows of
  * the strips whose bound exceeds its candidate's score. Each swept strip's
  * bound becomes the best score of its rows.
  *
  * The sweep reads rects as [[SweepLine.Columns]] whose positions are kept
  * in order of corner x and of corner y. Every rect has the same `b×a` size,
  * so its clipped edges `max(x, x0)` and `min(x + b, x1)` are both monotone
  * in `x`: merging the two edge sequences in x order gives the distinct
  * candidate xs and every rect's leaf range in `O(n)`, and the same merge in
  * y order gives the rows. The adds (tops) and removes (bottoms) are two
  * descending walks of the y order, so the sweep itself neither sorts nor
  * searches. `CellCspot` keeps both orders as rects arrive; the `Iterable`
  * overloads gather their input and sort it into the same form.
  *
  * Tie order: a row replaces the best point only when its maximum exceeds
  * it by more than `1e-12`, and then with its leftmost maximiser, so the
  * answer is the topmost row's leftmost point among the maximisers swept.
  */
object SweepLine {

  /** Result of one sweep: the best point of the rows swept (None iff no
    * live rect meets them), the number of rectangles actually swept (the
    * paper's `|c|`, for search-cost accounting) and the number of strips
    * swept.
    */
  final case class SweepResult(point: Option[BurstyPoint], rectCount: Int, strips: Int)

  /** Lowest and highest of the `n` equal closed horizontal strips of `box`
    * that height `y` lies in: strip `floor((y − y0)·(n/(y1 − y0)))`, and
    * both neighbours when that is a whole number. `CspotCell`'s bound
    * updates and the sweep both place heights with these, on the same
    * clipped edges, so a rect is credited to every strip of every row it
    * covers.
    */
  private[core] def stripLo(y: Double, box: Box, n: Int): Int =
    math.min(n - 1, math.max(0, math.ceil((y - box.y0) * (n / (box.y1 - box.y0))).toInt - 1))

  private[core] def stripHi(y: Double, box: Box, n: Int): Int =
    math.min(n - 1, math.max(0, math.floor((y - box.y0) * (n / (box.y1 - box.y0))).toInt))

  /** Rects as columns over positions: the object, its corner `x` and `y`,
    * its weight `d = w/|W|` and whether it is in `W_p`. The first `ordered`
    * entries of `byX` and `byY` are positions sorted by corner x and by
    * corner y, ties in position order; both are `null` until [[sortOrders]]
    * first runs. `lv` holds each rect's top-k level (see `KCellCspot`); it
    * is `null` until a level is first written, and a rect [[set]] since then
    * gets `Int.MaxValue`. A sweep at layer `i` reads only the rects whose
    * level is above `i`, so without `lv` it reads every rect.
    */
  private[core] class Columns(cap: Int) {
    var objs: Array[SpatialObj] = new Array[SpatialObj](cap)
    var xs: Array[Double]       = new Array[Double](cap)
    var ys: Array[Double]       = new Array[Double](cap)
    var ds: Array[Double]       = new Array[Double](cap)
    var past: Array[Boolean]    = new Array[Boolean](cap)
    var byX: Array[Int]         = null
    var byY: Array[Int]         = null
    var ordered: Int            = 0
    var lv: Array[Int]          = null

    def capacity: Int = objs.length

    /** Resizes every column to `cap` positions, keeping the contents of
      * the first `cap`.
      */
    def resize(cap: Int): Unit = {
      objs = java.util.Arrays.copyOf(objs, cap)
      xs = java.util.Arrays.copyOf(xs, cap)
      ys = java.util.Arrays.copyOf(ys, cap)
      ds = java.util.Arrays.copyOf(ds, cap)
      past = java.util.Arrays.copyOf(past, cap)
      if (lv != null) lv = java.util.Arrays.copyOf(lv, cap)
      if (byX != null) {
        byX = java.util.Arrays.copyOf(byX, cap)
        byY = java.util.Arrays.copyOf(byY, cap)
      }
    }

    /** Sets both orders to positions `0 until n`, sorted stably by `xs`
      * and by `ys`, with scratch space from `ws`.
      */
    def sortOrders(n: Int, ws: Workspace): Unit = {
      if (byX == null || byX.length < capacity) { byX = new Array[Int](capacity); byY = new Array[Int](capacity) }
      argsort(xs, n, byX, ws.fx)
      argsort(ys, n, byY, ws.fx)
      ordered = n
    }

    def set(p: Int, o: SpatialObj, d: Double, isPast: Boolean): Unit = {
      objs(p) = o; xs(p) = o.x; ys(p) = o.y; ds(p) = d; past(p) = isPast
      if (lv != null) lv(p) = Int.MaxValue
    }
  }

  /** The arrays a sweep works in, kept between sweeps: they grow to the
    * largest input seen and are never freed. A detector owns one; it is
    * not safe to share between threads.
    */
  final class Workspace {
    private[SweepLine] val gathered = new Columns(16)
    // Per position: ranks of the low and high clipped edges on each axis.
    private[SweepLine] var xl, xh, yl, yh = new Array[Int](16)
    // The positions meeting the box, in x and in y order.
    private[SweepLine] var fx, fy = new Array[Int](16)
    // Distinct clipped edges per axis.
    private[SweepLine] var xe, ye = new Array[Double](32)
    private[SweepLine] val tree = new MaxTree
    // The one strip of a whole-box sweep.
    private[SweepLine] val whole = new Array[Double](1)

    private[SweepLine] def fit(positions: Int, n: Int): Unit = {
      if (xl.length < positions) {
        xl = new Array[Int](positions); xh = new Array[Int](positions)
        yl = new Array[Int](positions); yh = new Array[Int](positions)
      }
      if (fx.length < n) { fx = new Array[Int](n); fy = new Array[Int](n) }
      if (xe.length < 2 * n) { xe = new Array[Double](2 * n); ye = new Array[Double](2 * n) }
    }
  }

  /** Wall-clock classification (snapshot semantics): windows derived from
    * `now` via [[Win.of]]. The continuous structures instead pass an explicit
    * event-driven classifier — see the other overload — because mid-batch
    * (several events sharing one firing timestamp) their incremental state
    * transitions membership at event-processing time, not wall-clock time.
    */
  def burstyPoint(all: Iterable[SpatialObj], box: Box, now: Long, cfg: SurgeConfig): SweepResult =
    burstyPoint(all, box, cfg, o => Win.of(o.t, now, cfg.windowMillis))

  /** Gathers the live rects of `all` into `ws`, sorts them into
    * [[Columns]] and sweeps them.
    */
  def burstyPoint(all: Iterable[SpatialObj], box: Box, cfg: SurgeConfig, winOf: SpatialObj => Win,
                  ws: Workspace = new Workspace): SweepResult = {
    val g = ws.gathered
    if (all.size > g.capacity) g.resize(all.size)
    var n = 0
    all.foreach { o =>
      val w = winOf(o)
      if (w != Win.Out) { g.set(n, o, cfg.delta(o.w), w == Win.Past); n += 1 }
    }
    g.sortOrders(n, ws)
    sweep(g, box, cfg, ws)
  }

  /** The sweep over pre-ordered columns, over the whole of `box`: `c.byX`
    * and `c.byY` must hold exactly the live positions. Rects not meeting
    * `box` are skipped.
    */
  private[core] def sweep(c: Columns, box: Box, cfg: SurgeConfig, ws: Workspace): SweepResult = {
    ws.whole(0) = Double.PositiveInfinity
    sweep(c, box, cfg, ws, ws.whole, Double.NegativeInfinity, 0)
  }

  /** The sweep of layer `layer`'s rects confined to the strips of `box`
    * that can beat a candidate scoring `t`. `bounds` holds an upper bound per
    * equal horizontal strip (see [[stripLo]]); the rows swept are those of
    * the strips from the first to the last whose bound exceeds `t`, and each
    * of those strips' bounds becomes the largest score of its rows (0 if it
    * has none). The other strips are left as they are.
    */
  private[core] def sweep(c: Columns, box: Box, cfg: SurgeConfig, ws: Workspace,
                          bounds: Array[Double], t: Double, layer: Int): SweepResult = {
    val n  = bounds.length
    var sa = 0
    while (sa < n && !(bounds(sa) > t)) sa += 1
    if (sa == n) return SweepResult(None, 0, 0)
    var sb = n - 1
    while (!(bounds(sb) > t)) sb -= 1
    java.util.Arrays.fill(bounds, sa, sb + 1, 0.0)

    ws.fit(c.capacity, c.ordered)
    val fy = ws.fy
    val m  = meeting(c, c.byX, box, cfg, layer, ws.fx)
    if (m == 0) return SweepResult(None, 0, sb - sa + 1)
    meeting(c, c.byY, box, cfg, layer, fy)

    // Candidate coordinates per axis: the distinct clipped edges, with
    // position 2e standing for edge e and 2e+1 for the midpoint of e, e+1.
    val kx = ranks(ws.fx, m, c.xs, cfg.rectW, box.x0, box.x1, ws.xe, ws.xl, ws.xh)
    val ky = ranks(fy, m, c.ys, cfg.rectH, box.y0, box.y1, ws.ye, ws.yl, ws.yh)
    val ye = ws.ye

    // Row 2e lies in the strips of edge e, and row 2e+1 stands for every
    // height between edges e and e+1, so it counts in all of their strips.
    // The rows meeting strips sa..sb run from the midpoint below the first
    // edge reaching sa to the midpoint above the last edge starting by sb.
    var lo = 0
    while (lo < ky && stripHi(ye(lo), box, n) < sa) lo += 1
    var hi = ky - 1
    while (hi >= 0 && stripLo(ye(hi), box, n) > sb) hi -= 1
    if (lo == ky || hi < 0) return SweepResult(None, 0, sb - sa + 1)
    val bottom = math.max(0, 2 * lo - 1)
    val top    = math.min(2 * ky - 2, 2 * hi + 1)

    // Rows run top-down. A rect is added at the row of its top edge and
    // removed at the first row below its bottom edge; both rows fall as `y`
    // rises, so walking `fy` downwards visits each kind in row order. The
    // rects active at the top row are loaded before the tree is built; the
    // ones wholly above it are passed over.
    val tree = ws.tree
    tree.reset(2 * kx - 1, cfg.alpha)
    var swept = 0
    var add   = m - 1
    while (add >= 0 && 2 * ws.yh(fy(add)) >= top) {
      if (2 * ws.yl(fy(add)) <= top) { edge(c, fy(add), 1.0, ws); swept += 1 }
      add -= 1
    }
    var rem = m - 1
    while (rem >= 0 && 2 * ws.yl(fy(rem)) > top) rem -= 1
    tree.build()
    var best: BurstyPoint = null
    var row = top
    while (row >= bottom) {
      while (add >= 0 && 2 * ws.yh(fy(add)) >= row) { edge(c, fy(add), 1.0, ws); swept += 1; add -= 1 }
      while (rem >= 0 && 2 * ws.yl(fy(rem)) > row) { edge(c, fy(rem), -1.0, ws); rem -= 1 }
      val max = tree.max
      var s   = math.max(sa, stripLo(ye(row >> 1), box, n))
      val e   = math.min(sb, stripHi(ye((row + 1) >> 1), box, n))
      while (s <= e) { if (max > bounds(s)) bounds(s) = max; s += 1 }
      if (best == null || max > best.score + 1e-12) {
        val j = tree.argmax()
        val v = cfg.burst(tree.fc, tree.fp)
        if (best == null || v > best.score + 1e-12)
          best = BurstyPoint(coord(ws.xe, j), coord(ye, row), tree.fc, tree.fp, v)
      }
      row -= 1
    }
    SweepResult(Some(best), swept, sb - sa + 1)
  }

  /** Copies the positions among the first `c.ordered` of `ord` whose rect
    * is in layer `layer` and meets `box` to `out`, in order; returns their
    * number.
    */
  private def meeting(c: Columns, ord: Array[Int], box: Box, cfg: SurgeConfig, layer: Int, out: Array[Int]): Int = {
    val lv = c.lv
    var m  = 0
    var i  = 0
    while (i < c.ordered) {
      val p = ord(i)
      if ((lv == null || lv(p) > layer) &&
          c.xs(p) <= box.x1 && box.x0 <= c.xs(p) + cfg.rectW && c.ys(p) <= box.y1 && box.y0 <= c.ys(p) + cfg.rectH) {
        out(m) = p; m += 1
      }
      i += 1
    }
    m
  }

  /** Adds (`sign = 1`) or removes (`sign = −1`) the rect at position `p`
    * over its range of candidate xs.
    */
  private def edge(c: Columns, p: Int, sign: Double, ws: Workspace): Unit = {
    val d = sign * c.ds(p)
    if (c.past(p)) ws.tree.add(2 * ws.xl(p), 2 * ws.xh(p), 0.0, d)
    else ws.tree.add(2 * ws.xl(p), 2 * ws.xh(p), d, 0.0)
  }

  /** Merges the low edges `max(v, lo)` and the high edges `min(v + ext, hi)`
    * of the positions `ord(0 until m)`, which are sorted by `v`, so both edge
    * sequences are sorted. Writes the distinct edges to `edges`, each
    * position's low and high edge rank to `rLo` and `rHi`, and returns the
    * number of distinct edges.
    */
  private def ranks(ord: Array[Int], m: Int, v: Array[Double], ext: Double, lo: Double, hi: Double,
                    edges: Array[Double], rLo: Array[Int], rHi: Array[Int]): Int = {
    var i = 0
    var j = 0
    var k = 0
    while (j < m) {
      val el = if (i < m) math.max(v(ord(i)), lo) else Double.PositiveInfinity
      val eh = math.min(v(ord(j)) + ext, hi)
      val e  = math.min(el, eh)
      if (k == 0 || edges(k - 1) != e) { edges(k) = e; k += 1 }
      if (el <= eh) { rLo(ord(i)) = k - 1; i += 1 }
      else { rHi(ord(j)) = k - 1; j += 1 }
    }
    k
  }

  /** Sets `ord(0 until n)` to the indices `0 until n` stably sorted by `key`. */
  private def argsort(key: Array[Double], n: Int, ord: Array[Int], tmp0: Array[Int]): Unit = {
    var src = ord
    var dst = if (tmp0.length >= n) tmp0 else new Array[Int](n)
    var i = 0
    while (i < n) { src(i) = i; i += 1 }
    var w = 1
    while (w < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + w, n)
        val hi  = math.min(lo + 2 * w, n)
        var l = lo
        var r = mid
        var o = lo
        while (o < hi) {
          if (r >= hi || (l < mid && key(src(l)) <= key(src(r)))) { dst(o) = src(l); l += 1 }
          else { dst(o) = src(r); r += 1 }
          o += 1
        }
        lo = hi
      }
      val t = src; src = dst; dst = t
      w *= 2
    }
    if (src ne ord) System.arraycopy(src, 0, ord, 0, n)
  }

  /** Candidate at position `p`: edge `p/2`, or the midpoint after it if `p` is odd. */
  private def coord(edges: Array[Double], p: Int): Double =
    if ((p & 1) == 0) edges(p >> 1) else (edges(p >> 1) + edges((p >> 1) + 1)) / 2

  /** Max-prefix tree over `m` leaves. Leaf `j` holds a step `(w_c, w_p)`,
    * and `(f_c, f_p)` at leaf `j` is a base plus the steps at leaves `1..j`
    * (leaf 0's step is the base, kept outside the tree). Node `v` keeps, at
    * `t(4v)` to `t(4v + 3)`, its leaves' step sums `sc` and `sp` and the best
    * prefix within its leaves of `f_c − α·f_p` (`pa`) and of `(1−α)·f_c`
    * (`pb`), so a node is recomputed from its two children, which sit in
    * adjacent slots. Padding leaves have prefixes −∞, so they never win.
    *
    * [[reset]] empties it for a new sweep, reusing its array. Until [[build]]
    * an [[add]] only records its steps; after it, each step walks from its
    * leaf to the root.
    */
  private final class MaxTree {
    private var size  = 1
    private var m     = 1
    private var alpha = 0.0
    private var built = false
    private var baseC = 0.0
    private var baseP = 0.0
    private var t     = new Array[Double](8)

    /** `(f_c, f_p)` of the leaf the last [[argmax]] returned. */
    var fc, fp = 0.0

    /** Empties the tree and sizes it for `m` leaves. */
    def reset(m: Int, alpha: Double): Unit = {
      this.m = m
      this.alpha = alpha
      size = if (m <= 1) 1 else Integer.highestOneBit(m - 1) << 1
      if (t.length < 8 * size) t = new Array[Double](8 * size)
      java.util.Arrays.fill(t, 4 * size, 8 * size, 0.0)
      baseC = 0.0; baseP = 0.0
      built = false
    }

    /** Computes every node from the recorded steps, bottom-up. */
    def build(): Unit = {
      var v = size
      while (v < 2 * size) { leaf(v); v += 1 }
      v = size - 1
      while (v >= 1) { pull(v); v -= 1 }
      built = true
    }

    /** The best burst score over all leaves. */
    def max: Double = math.max(t(6) + (baseC - alpha * baseP), t(7) + (1 - alpha) * baseC)

    /** Adds `(dc, dp)` to leaves `lo..hi`: a step at `lo` and its negation
      * at `hi + 1`, none past the last leaf.
      */
    def add(lo: Int, hi: Int, dc: Double, dp: Double): Unit = {
      if (lo == 0) { baseC += dc; baseP += dp } else step(lo, dc, dp)
      if (hi + 1 < m) step(hi + 1, -dc, -dp)
    }

    private def step(j: Int, dc: Double, dp: Double): Unit = {
      var v = size + j
      t(4 * v) += dc
      t(4 * v + 1) += dp
      if (built) {
        leaf(v)
        v >>= 1
        while (v >= 1) { pull(v); v >>= 1 }
      }
    }

    private def leaf(v: Int): Unit = {
      val i = 4 * v
      if (v - size < m) {
        t(i + 2) = t(i) - alpha * t(i + 1)
        t(i + 3) = (1 - alpha) * t(i)
      } else {
        t(i + 2) = Double.NegativeInfinity
        t(i + 3) = Double.NegativeInfinity
      }
    }

    private def pull(v: Int): Unit = {
      val i  = 4 * v
      val l  = 8 * v
      val lc = t(l)
      val lp = t(l + 1)
      t(i) = lc + t(l + 4)
      t(i + 1) = lp + t(l + 5)
      t(i + 2) = math.max(t(l + 2), (lc - alpha * lp) + t(l + 6))
      t(i + 3) = math.max(t(l + 3), (1 - alpha) * lc + t(l + 7))
    }

    /** The leftmost leaf with the best score, found by walking down with
      * the sums of the steps left of the current node.
      */
    def argmax(): Int = {
      var v = 1
      var c = baseC
      var p = baseP
      while (v < size) {
        val l  = 8 * v
        val sl = math.max(t(l + 2) + (c - alpha * p), t(l + 3) + (1 - alpha) * c)
        val rc = c + t(l)
        val rp = p + t(l + 1)
        val sr = math.max(t(l + 6) + (rc - alpha * rp), t(l + 7) + (1 - alpha) * rc)
        v = 2 * v
        if (sr > sl) { v += 1; c = rc; p = rp }
      }
      fc = c + t(4 * v); fp = p + t(4 * v + 1)
      v - size
    }
  }
}
