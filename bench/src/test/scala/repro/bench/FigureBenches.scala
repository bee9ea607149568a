package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.LiveSet
import repro.core._
import repro.core.topk.KCellCspot
import repro.data.SpatialStreams
import repro.exp.Tables
import repro.exp.Tables._
import repro.stream.EventStream

/** Figure-shaped supplementary benchmarks (Figs 5, 6, 8, 9): the runtime
  * and scalability *claims* of the evaluation, reproduced as tables.
  */
class RuntimeBench extends AnyFunSuite {
  test("Fig 5/6 shape — per-message processing time of every algorithm") {
    val n    = Tables.envN(10000)
    val rows = Tables.runtimeTable(n)
    println(s"\n=== Runtime per message (default |W| and q, n=$n) ===")
    println(Tables.fmtTable(
      Seq("Dataset", "Algo", "time/msg"),
      rows.map(r => Seq(r.dataset, r.algo, nanos(r.nsPerMsg))),
    ))
    val by = rows.groupBy(r => (r.dataset, r.algo)).view.mapValues(_.head.nsPerMsg).toMap
    SpatialStreams.all.map(_.name).foreach { ds =>
      // Fig 5 shape: CCS beats B-CCS, Base and aG2.
      assert(by((ds, "CCS")) < by((ds, "B-CCS")), s"$ds: CCS not faster than B-CCS")
      assert(by((ds, "CCS")) < by((ds, "Base")), s"$ds: CCS not faster than Base")
      assert(by((ds, "CCS")) < by((ds, "aG2")), s"$ds: CCS not faster than aG2")
      // Fig 6 shape: the approximations are much faster than exact; MGAPS
      // costs a small multiple of GAPS (it runs four grids).
      assert(by((ds, "GAPS")) < by((ds, "CCS")), s"$ds: GAPS not faster than CCS")
      assert(by((ds, "MGAPS")) < 10 * by((ds, "GAPS")) + 2000, s"$ds: MGAPS overhead off")
    }
  }
}

class TopKBench extends AnyFunSuite {
  test("Fig 9 shape — top-k runtime vs k") {
    val n    = Tables.envN(4000)
    val rows = Tables.topKTable(n)
    println(s"\n=== Top-k runtime per message (US, n=$n) ===")
    println(Tables.fmtTable(
      Seq("Dataset", "k", "Algo", "time/msg"),
      rows.map(r => Seq(r.dataset, r.k.toString, r.algo, nanos(r.nsPerMsg))),
    ))
    val kccs = rows.filter(_.algo == "kCCS").sortBy(_.k)
    // kCCS cost grows with k; the grid approximations stay cheap.
    assert(kccs.last.nsPerMsg > kccs.head.nsPerMsg * 0.8)
    rows.filter(_.algo == "kGAPS").foreach { r =>
      val exact = rows.find(x => x.k == r.k && x.algo == "kCCS").get
      assert(r.nsPerMsg < exact.nsPerMsg, s"k=${r.k}: kGAPS not faster than kCCS")
    }
  }

  test("naive per-event recomputation is orders of magnitude slower than kCCS") {
    val spec = SpatialStreams.US
    val n    = Tables.envN(4000) / 5
    val objs = SpatialStreams.generate(spec, n)
    val cfg  = spec.config(Tables.defaultAlpha)
    val k    = 3
    val kccs = new KCellCspot(cfg, k)
    val (_, nsK) = Tables.timePerMessage(objs, cfg.windowMillis)(e => { kccs.onEvent(e); () })
    val live = new LiveSet(cfg.windowMillis)
    val (_, nsN) = Tables.timePerMessage(objs, cfg.windowMillis) { e =>
      live(e)
      BruteForce.topK(live.objectsAt(e.at), e.at, cfg, k)
      ()
    }
    println(f"\n=== Naive vs kCCS (US, n=$n, k=$k) ===")
    println(f"kCCS:  ${nanos(nsK)}  naive: ${nanos(nsN)}  ratio: ${nsN / nsK}%.0fx")
    assert(nsN > 10 * nsK, s"naive ($nsN ns) should be >>10x kCCS ($nsK ns)")
  }
}

class ScalabilityBench extends AnyFunSuite {
  test("Fig 8 shape — seconds per stream-hour vs arrival-rate multiplier") {
    val n    = Tables.envN(10000)
    val rows = Tables.scalabilityTable(n)
    println(s"\n=== Scalability: t_h = wall seconds per stream-hour (n=$n) ===")
    println(Tables.fmtTable(
      Seq("Dataset", "RateX", "Algo", "t_h (s/stream-hour)"),
      rows.map(r => Seq(r.dataset, r.rateMult.toString, r.algo, f"${r.secPerStreamHour}%.4f")),
    ))
    // Shape: GAPS scales gracefully — CCS's t_h grows much faster with rate.
    SpatialStreams.all.map(_.name).foreach { ds =>
      val ccs1 = rows.find(r => r.dataset == ds && r.algo == "CCS" && r.rateMult == 1).get
      val ccs8 = rows.find(r => r.dataset == ds && r.algo == "CCS" && r.rateMult == 8).get
      val gap8 = rows.find(r => r.dataset == ds && r.algo == "GAPS" && r.rateMult == 8).get
      assert(ccs8.secPerStreamHour > ccs1.secPerStreamHour,
             s"$ds: CCS t_h should grow with rate")
      assert(gap8.secPerStreamHour < ccs8.secPerStreamHour,
             s"$ds: GAPS should beat CCS at high rate")
    }
  }
}
