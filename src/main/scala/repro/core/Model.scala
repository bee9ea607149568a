package repro.core

/** A spatial object `o = ⟨w, ρ, t_c⟩` (Section III-A).
  *
  * The same record doubles as a *rectangle object* `g` of the reduced CSPOT
  * problem (Definition 3): `(x, y)` is then the left-bottom corner of an
  * `b×a` rectangle (`b` along x, `a` along y) and `w`/`t` carry over
  * unchanged. `id` is a stream-unique identifier used by the continuous
  * index structures.
  *
  * @param id stream-unique identifier
  * @param w  weight (paper: uniform in [1,100])
  * @param x  longitude-like coordinate
  * @param y  latitude-like coordinate
  * @param t  creation time `t_c` in epoch milliseconds
  */
final case class SpatialObj(id: Long, w: Double, x: Double, y: Double, t: Long)

/** Closed axis-aligned box `[x0,x1]×[y0,y1]`. */
final case class Box(x0: Double, y0: Double, x1: Double, y1: Double) {
  /** Closed containment — rectangle objects cover their boundary. */
  def contains(px: Double, py: Double): Boolean =
    x0 <= px && px <= x1 && y0 <= py && py <= y1

  /** Closed intersection test (touching boxes intersect). */
  def intersectsClosed(o: Box): Boolean =
    x0 <= o.x1 && o.x0 <= x1 && y0 <= o.y1 && o.y0 <= y1

  /** Positive-area overlap test (touching boxes do NOT overlap). */
  def overlapsOpen(o: Box): Boolean =
    x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1
}

/** Which sliding window a creation time falls into at evaluation time `now`:
  * current `W_c = (now−|W|, now]`, past `W_p = (now−2|W|, now−|W|]`, or out.
  */
sealed abstract class Win extends Serializable
object Win {
  case object Cur  extends Win
  case object Past extends Win
  case object Out  extends Win

  def of(tc: Long, now: Long, windowMillis: Long): Win =
    if (tc > now - windowMillis && tc <= now) Cur
    else if (tc > now - 2 * windowMillis && tc <= now - windowMillis) Past
    else Out
}

/** The three event types of Section IV-C: a rectangle object entering the
  * current window, moving from current to past, or leaving the past window.
  * Each kind is its transition: the object's weight moves by `dCur` in
  * `W_c` and by `dPast` in `W_p`.
  */
sealed abstract class EventKind(val dCur: Int, val dPast: Int) extends Serializable
object EventKind {
  case object New     extends EventKind(+1, 0)
  case object Grown   extends EventKind(-1, +1)
  case object Expired extends EventKind(0, -1)
}

/** An event `e = ⟨g, l⟩` together with the wall-clock time it fires at. */
final case class Event(obj: SpatialObj, kind: EventKind, at: Long)

/** A bursty point (or the representative point of a region) together with
  * its per-window scores and burst score at some snapshot.
  */
final case class BurstyPoint(x: Double, y: Double, fc: Double, fp: Double, score: Double)

/** Query-and-scoring configuration shared by every solver.
  *
  * @param rectW        region extent along x (the paper's `b`)
  * @param rectH        region extent along y (the paper's `a`)
  * @param windowMillis sliding window length `|W|` in milliseconds
  * @param alpha        significance/burstiness balance `α ∈ [0,1)` (Def. 1)
  */
final case class SurgeConfig(rectW: Double, rectH: Double, windowMillis: Long, alpha: Double)
    extends Serializable {
  require(rectW > 0 && rectH > 0, "region size must be positive")
  require(windowMillis > 0, "window must be positive")
  require(alpha >= 0 && alpha < 1, s"alpha must be in [0,1), got $alpha")

  /** `|W|` expressed in hours — the normalisation unit for `f(r, W)`. */
  val windowNorm: Double = windowMillis.toDouble / 3600000.0

  /** Contribution of one object of weight `w` to `f`: `w / |W|`. */
  def delta(w: Double): Double = w / windowNorm

  /** Burst score `S = α·max(f_c − f_p, 0) + (1−α)·f_c` (Definition 1). */
  def burst(fc: Double, fp: Double): Double =
    alpha * math.max(fc - fp, 0.0) + (1 - alpha) * fc

  /** The rectangle object generated from spatial object `o` (Section IV-A):
    * `o.ρ` as the left-bottom corner of a closed `rectW×rectH` box.
    */
  def rectBox(o: SpatialObj): Box = Box(o.x, o.y, o.x + rectW, o.y + rectH)

  /** The SURGE region whose top-right corner is bursty point `p`
    * (Theorem 1): the `rectW×rectH` box `[p.x−b, p.x]×[p.y−a, p.y]`.
    */
  def regionOf(px: Double, py: Double): Box = Box(px - rectW, py - rectH, px, py)

  def withWindowMillis(w: Long): SurgeConfig = copy(windowMillis = w)
}
