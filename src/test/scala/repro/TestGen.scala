package repro

import java.util.Random
import repro.core._

/** Deterministic random-stream generators for the unit suites. Weights are
  * continuous by default so burst-score ties between *different* cover sets
  * have probability ~0 — which makes greedy top-k score vectors well-defined
  * and lets replay tests compare optimised structures against the brute
  * oracle without tie ambiguity.
  */
object TestGen {

  def cfg(windowMillis: Long = 1000L, alpha: Double = 0.5,
          rectW: Double = 1.0, rectH: Double = 1.0): SurgeConfig =
    SurgeConfig(rectW, rectH, windowMillis, alpha)

  /** `n` objects with nondecreasing timestamps over `span` ms, uniform
    * positions in `[0,ext]²`.
    */
  def stream(seed: Int, n: Int, span: Long = 3000L, ext: Double = 8.0,
             intWeights: Boolean = false): IndexedSeq[SpatialObj] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      val t = 10000L + (i.toDouble / n * span).toLong
      SpatialObj(
        i.toLong,
        if (intWeights) 1.0 + rng.nextInt(100) else 0.5 + rng.nextDouble(),
        rng.nextDouble() * ext,
        rng.nextDouble() * ext,
        t,
      )
    }
  }

  /** Like [[stream]] but with half the mass clustered near one hotspot, so
    * grid cells actually fill up and bound/candidate logic gets exercised.
    */
  def clusteredStream(seed: Int, n: Int, span: Long = 3000L,
                      ext: Double = 5.0): IndexedSeq[SpatialObj] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      val t = 10000L + (i.toDouble / n * span).toLong
      val (x, y) =
        if (rng.nextBoolean())
          (math.min(ext, math.max(0, ext / 3 + rng.nextGaussian() * 0.6)),
           math.min(ext, math.max(0, ext / 3 + rng.nextGaussian() * 0.6)))
        else (rng.nextDouble() * ext, rng.nextDouble() * ext)
      SpatialObj(i.toLong, 0.5 + rng.nextDouble(), x, y, t)
    }
  }

  /** Timestamp step of [[tiedStream]]; use a window that is a multiple of it. */
  val TiedStep = 100L

  /** An adversarial stream full of ties: 4–8 arrivals (about 6) share each
    * timestamp, timestamps advance by [[TiedStep]] so that Grown/Expired
    * events fire exactly when arrivals do under a window that is a multiple
    * of it, weights are integers in 1–3, and corners sit on a lattice of
    * `1/lattice` units in `[0,ext]²` so unit rects are grid-aligned (integer
    * corners touch 9 cells) and share edges. At `lattice = 8` edges also lie
    * on the boundaries of a cell's strips.
    */
  def tiedStream(seed: Int, n: Int, ext: Int = 4, lattice: Int = 2): IndexedSeq[SpatialObj] = {
    val rng  = new Random(seed)
    var t    = 10000L
    var left = 4 + rng.nextInt(5)
    (0 until n).map { i =>
      if (left == 0) { t += TiedStep; left = 4 + rng.nextInt(5) }
      left -= 1
      SpatialObj(i.toLong, 1.0 + rng.nextInt(3),
                 rng.nextInt(lattice * ext + 1) / lattice.toDouble, rng.nextInt(lattice * ext + 1) / lattice.toDouble, t)
    }
  }

  /** A static snapshot: objects spread across current window, past window,
    * and expired territory relative to `now`.
    */
  def snapshot(seed: Int, n: Int, now: Long, windowMillis: Long,
               ext: Double = 6.0): IndexedSeq[SpatialObj] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      val t = now - (rng.nextDouble() * 2.5 * windowMillis).toLong
      SpatialObj(i.toLong, 0.5 + rng.nextDouble(), rng.nextDouble() * ext, rng.nextDouble() * ext, t)
    }
  }
}
