package repro.perfbench

/** Nearest-rank percentiles of timing samples.
  *
  * A tail percentile (above the median) is only reported when at least
  * [[MinBeyond]] samples lie beyond it; with fewer, the number is one or two
  * outliers rather than a percentile. The median is always reported.
  */
object Percentiles {

  val MinBeyond = 10

  /** 1-based nearest rank of quantile `q` among `n` samples. */
  def rank(n: Int, q: Double): Int = {
    require(n > 0 && q > 0 && q <= 1, s"bad percentile request n=$n q=$q")
    math.max(1, math.ceil(q * n - 1e-9).toInt)
  }

  /** Samples strictly beyond the nearest-rank `q` percentile. */
  def beyond(n: Int, q: Double): Int = n - rank(n, q)

  def supported(n: Int, q: Double): Boolean = q <= 0.5 || beyond(n, q) >= MinBeyond

  /** Value at quantile `q` of ascending `sorted`; fails when unsupported. */
  def of(sorted: Array[Long], q: Double): Long = {
    require(supported(sorted.length, q),
      s"p${q * 100} needs $MinBeyond samples beyond it, have ${sorted.length} samples")
    sorted(rank(sorted.length, q) - 1)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    require(n > 0)
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}
