package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Tables

/** Benchmark suites, one per evaluation table. Each prints the measured
  * table next to the paper's numbers (also recorded in EXPERIMENTS.md) and
  * asserts only the qualitative *shape* — absolute values depend on scale
  * (`SURGE_BENCH_N`, default below; the paper ran 1M objects in C++).
  */
class TableIBench extends AnyFunSuite {
  test("Table I — dataset statistics") {
    val n    = Tables.envN(100000)
    val rows = Tables.tableI(n)
    println("\n" + Tables.showTableI(n, rows))
    assert(rows.length == 3)
    rows.foreach(r => assert(r.n == n))
  }
}

class TableIIBench extends AnyFunSuite {
  test("Table II — search-trigger ratio vs window size (CCS vs B-CCS)") {
    val n    = Tables.envN(20000)
    val rows = Tables.tableII(n)
    println("\n" + Tables.showTableII(n, rows))
    assert(rows.length == 15)
    // Shape: CCS triggers far fewer searches than B-CCS on every dataset.
    val byDs = rows.groupBy(_.dataset)
    byDs.foreach { case (ds, rs) =>
      val c = rs.map(_.ccs).sum / rs.length
      val b = rs.map(_.bccs).sum / rs.length
      assert(c < b, s"$ds: mean CCS $c% not below mean B-CCS $b%")
    }
  }
}

class TableIIIBench extends AnyFunSuite {
  test("Table III — approximation ratio vs alpha (US, |W|=1h)") {
    val n    = Tables.envN(20000)
    val s    = Tables.envSample(200)
    val rows = Tables.tableIII(n, s)
    println("\n" + Tables.showTableIII(n, s, rows))
    rows.foreach { r =>
      // ratios healthy and far above the theoretical (1-alpha)/4 floor
      assert(r.gaps > 40 && r.gaps <= 100 + 1e-9, s"alpha=${r.alpha}: GAPS ${r.gaps}")
      assert(r.mgaps > 50 && r.mgaps <= 100 + 1e-9)
      assert(r.mgaps >= r.gaps - 8, "MGAPS should not trail GAPS meaningfully")
    }
  }
}

class TableIVBench extends AnyFunSuite {
  test("Table IV — approximation ratio vs window size") {
    val n    = Tables.envN(20000)
    val s    = Tables.envSample(200)
    val rows = Tables.tableIV(n, s)
    println("\n" + Tables.showTableIV(n, s, rows))
    assert(rows.length == 15)
    rows.foreach { r =>
      assert(r.gaps > 40 && r.gaps <= 100 + 1e-9, s"${r.dataset}/${r.window}: GAPS ${r.gaps}")
      assert(r.mgaps > 50 && r.mgaps <= 100 + 1e-9)
    }
    // Shape: MGAPS beats GAPS on average (its whole reason to exist).
    assert(rows.map(_.mgaps).sum > rows.map(_.gaps).sum)
  }
}
