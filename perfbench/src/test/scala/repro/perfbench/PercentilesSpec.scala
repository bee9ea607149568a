package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class PercentilesSpec extends AnyFunSuite {

  test("nearest rank") {
    assert(Percentiles.rank(1000, 0.99) == 990)
    assert(Percentiles.rank(1000, 0.5) == 500)
    assert(Percentiles.rank(1001, 0.5) == 501)
    assert(Percentiles.rank(10, 0.999) == 10)
    assert(Percentiles.rank(3, 0.01) == 1)
  }

  test("a tail percentile needs ten samples beyond it") {
    assert(Percentiles.beyond(1000, 0.99) == 10)
    assert(Percentiles.supported(1000, 0.99))
    assert(!Percentiles.supported(999, 0.99))
    assert(Percentiles.supported(10000, 0.999))
    assert(!Percentiles.supported(9999, 0.999))
    assert(Percentiles.supported(100, 0.9))
    assert(!Percentiles.supported(99, 0.9))
  }

  test("the median is always reported") {
    assert(Percentiles.supported(1, 0.5))
    assert(Percentiles.of(Array(7L), 0.5) == 7L)
  }

  test("values come from the sorted samples") {
    val xs = Array.tabulate(1000)(i => (i + 1).toLong)
    assert(Percentiles.of(xs, 0.5) == 500L)
    assert(Percentiles.of(xs, 0.99) == 990L)
    intercept[IllegalArgumentException](Percentiles.of(xs.take(999), 0.99))
  }

  test("median of doubles") {
    assert(Percentiles.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Percentiles.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
  }
}
