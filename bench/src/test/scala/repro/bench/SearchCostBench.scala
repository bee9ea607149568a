package repro.bench

import java.lang.management.ManagementFactory
import scala.util.hashing.MurmurHash3
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.topk.KCellCspot
import repro.data.SpatialStreams
import repro.exp.Tables
import repro.stream.EventStream

/** The cost of an SL-CSPOT search inside CCS, and fingerprints of the exact
  * detectors' answers for comparing two versions of the program.
  *
  * Streams are the ones perfbench's `ccs-us` and `kccs5-us` workloads replay
  * for seed 201: `SpatialStreams.US` with stream seed `201·1000003 + r`, at
  * 1/4 (CCS) and 1/10 (kCCS) of the paper's rate, four windows of
  * arrivals each, drained to empty. Every event is `process`ed and then
  * answered. Run with `sbt "bench/testOnly *SearchCostBench"`.
  *
  * Printed per CCS pass over the 12 streams: µs per search (the time of the
  * `query` calls that searched over the searches they made), `process` ns
  * per event, the search count, a hash of every event's answer and a
  * fingerprint of the answers' scores alone (which stays put when answers
  * move among tied points), and `MaxHeap.update` calls per event. Then, median over the passes, µs per search by
  * rects swept, and the searches by the number of a cell's strips they
  * swept, with the µs per search of the `query` calls that made one such
  * search. A call that made `n` searches over `r` rects counts `n`
  * searches of `r/n` rects. The same
  * split is printed for kCCS(5) on six `kccs5-us` streams, where the timed
  * call is `onEvent`, so each search also carries its event's updates; the
  * mean `onEvent` time of events that did not search is printed beside it,
  * with the heap updates, private copies made and rect level changes per
  * event.
  * The second test prints search counts and answer hashes for B-CCS and Base
  * (`Tables.streamFor(US, 8000, 1h)`, seeds 201 and 202) and kCCS(5); for
  * kCCS also rects per search and a fingerprint of the scores alone, which
  * stays put when answers move among tied points.
  *
  * The third test prints bytes allocated per event on the event path
  * (`ThreadMXBean.getCurrentThreadAllocatedBytes` around passes over events
  * materialised beforehand, after one warm pass): MGAPS `process` and
  * `process`+`top` on three `mgaps-us` streams (the paper's rate), CCS
  * `process` and `process`+`query` on three `ccs-us` streams, and kCCS(5)
  * `onEvent`+`current` on three `kccs5-us` streams. It also prints a hash of
  * every MGAPS answer's box corner, `fc`, `fp` and score.
  */
class SearchCostBench extends AnyFunSuite {
  import SearchCostBench.{Buckets, KPass, Pass}

  private val Seed    = 201L
  private val Streams = 12
  private val Passes  = 3

  /** A stream of perfbench's stream `r` for seed 201 at `rateFraction` of the paper's rate. */
  private def stream(rateFraction: Double, r: Int): (SurgeConfig, IndexedSeq[SpatialObj]) = {
    val spec    = SpatialStreams.US.copy(seed = Seed * 1000003L + r)
    val cfg     = spec.config(0.5)
    val objects = math.round(4 * spec.paperRatePerHour * rateFraction * cfg.windowMillis / 3.6e6).toInt
    (cfg, SpatialStreams.generate(spec, objects, rateFraction * 1e6 / objects))
  }

  private def mix(h: Long, p: Option[BurstyPoint]): Long = p match {
    case None    => h * 31
    case Some(q) =>
      val bits = Seq(q.x, q.y, q.score).map(java.lang.Double.doubleToLongBits)
      bits.foldLeft(h)((a, b) => a * 31 + b)
  }

  /** Folds the scores of `v` into `h`, `None` as a value no score has. */
  private def mixScores(h: Int, v: Seq[Option[BurstyPoint]]): Int = v.foldLeft(h) { (a, p) =>
    val bits = p.fold(-1L)(q => java.lang.Double.doubleToLongBits(q.score))
    MurmurHash3.mix(MurmurHash3.mix(a, bits.toInt), (bits >>> 32).toInt)
  }

  private def ccsPass(streams: Seq[(SurgeConfig, IndexedSeq[SpatialObj])]): Pass = {
    var searchNs, processNs, events, searches, hash, updates = 0L
    var scores = 0
    val bySize   = new Buckets
    val byStrips = new Array[Long](CspotCell.Strips + 1)
    val oneNs    = new Array[Long](CspotCell.Strips + 1)
    val one      = new Array[Long](CspotCell.Strips + 1)
    streams.foreach { case (cfg, objs) =>
      val ccs = new CellCspot(cfg, BoundMode.Full)
      EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
        val strips = stripsSwept(ccs.stats)
        val t0 = System.nanoTime()
        ccs.process(e)
        val t1 = System.nanoTime()
        val before = ccs.stats.searches
        val swept  = ccs.stats.sweptRects
        val p = ccs.query()
        val t2 = System.nanoTime()
        processNs += t1 - t0
        if (ccs.stats.searches > before) {
          searchNs += t2 - t1
          bySize.add(ccs.stats.searches - before, ccs.stats.sweptRects - swept, t2 - t1)
          if (ccs.stats.searches == before + 1) {
            val n = (stripsSwept(ccs.stats) - strips).toInt
            oneNs(n) += t2 - t1
            one(n) += 1
          }
        }
        events += 1
        hash = mix(hash, p)
        scores = mixScores(scores, p :: Nil)
      }
      searches += ccs.stats.searches
      updates += ccs.heapUpdates
      byStrips.indices.foreach(i => byStrips(i) += ccs.stats.byStrips(i))
    }
    Pass(searchNs / 1e3 / searches, processNs.toDouble / events, searches, hash,
         MurmurHash3.finalizeHash(scores, events.toInt), bySize, byStrips.toSeq,
         oneNs.indices.map(n => if (one(n) == 0) 0.0 else oneNs(n) / 1e3 / one(n)), updates.toDouble / events)
  }

  /** The strips swept by all of `s`'s searches so far. */
  private def stripsSwept(s: CspotStats): Long = {
    var t = 0L
    var n = 1
    while (n < s.byStrips.length) { t += n * s.byStrips(n); n += 1 }
    t
  }

  /** One timed kCCS(5) pass. */
  private def kccsPass(streams: Seq[(SurgeConfig, IndexedSeq[SpatialObj])]): KPass = {
    val bySize = new Buckets
    var quietNs, quiet, events, updates, copies, levels = 0L
    streams.foreach { case (cfg, objs) =>
      val det = new KCellCspot(cfg, 5)
      EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
        val before = det.stats.searches
        val swept  = det.stats.sweptRects
        val t0 = System.nanoTime()
        det.onEvent(e)
        val dt = System.nanoTime() - t0
        if (det.stats.searches > before) bySize.add(det.stats.searches - before, det.stats.sweptRects - swept, dt)
        else { quietNs += dt; quiet += 1 }
        events += 1
      }
      updates += det.heapUpdates
      copies += det.copiesMade
      levels += det.levelChanges
    }
    KPass(bySize, quietNs.toDouble / quiet, updates.toDouble / events, copies.toDouble / events,
          levels.toDouble / events)
  }

  test("SL-CSPOT search cost inside CCS at ccs-us density") {
    val streams = (0 until Streams).map(stream(0.25, _))
    ccsPass(streams.take(2)) // warm-up
    val passes = (1 to Passes).map(_ => ccsPass(streams))
    println(f"\n=== CCS on $Streams US streams (seed $Seed, ${streams.head._2.size} objects each) ===")
    passes.zipWithIndex.foreach { case (p, i) =>
      println(f"pass ${i + 1}: ${p.searchUs}%.1f us/search  ${p.processNs}%.0f ns/process  " +
              f"${p.searches} searches  hash ${p.hash}%016x  scores ${p.scores}%08x  " +
              f"${p.heapUpdates}%.2f heap updates/event")
    }
    val med = passes.sortBy(_.searchUs).apply(Passes / 2)
    println(f"median: ${med.searchUs}%.1f us/search, ${passes.map(_.processNs).sorted.apply(Passes / 2)}%.0f ns/process")
    println(Buckets.report(passes.map(_.bySize)))
    println((1 to CspotCell.Strips).map { n =>
      val us = passes.map(_.oneUs(n)).sorted.apply(Passes / 2)
      f"$n: ${med.byStrips(n)} ($us%.2f us)"
    }.mkString("searches by strips swept (us/search of one-search queries): ", "  ", ""))
    assert(passes.map(p => (p.searches, p.hash, p.scores, p.byStrips)).distinct.size == 1, "passes disagree")
  }

  test("SL-CSPOT search cost inside kCCS(5) at kccs5-us density") {
    val streams = (0 until 6).map(stream(0.1, _))
    kccsPass(streams.take(2)) // warm-up
    val passes = (1 to Passes).map(_ => kccsPass(streams))
    println(f"\n=== kCCS(5) on 6 US streams (seed $Seed, ${streams.head._2.size} objects each) ===")
    val p0 = passes.head
    println(f"onEvent without a search: ${passes.map(_.quietNs).sorted.apply(Passes / 2) / 1e3}%.2f us (median)  " +
            f"${p0.heapUpdates}%.2f heap updates/event  ${p0.copies}%.3f copies/event  " +
            f"${p0.levelChanges}%.3f level changes/event")
    println(Buckets.report(passes.map(_.bySize)))
    assert(passes.map(p => (p.bySize.searches.sum, p.heapUpdates, p.copies, p.levelChanges)).distinct.size == 1,
           "passes disagree")
  }

  test("answer fingerprints of B-CCS, Base and kCCS(5)") {
    println("\n=== Answer fingerprints ===")
    for (seed <- Seq(201L, 202L); mode <- Seq(BoundMode.StaticOnly, BoundMode.NoBounds)) {
      val cfg  = SpatialStreams.US.config(0.5)
      val objs = Tables.streamFor(SpatialStreams.US.copy(seed = seed), 8000, cfg.windowMillis)
      val det  = new CellCspot(cfg, mode)
      var hash = 0L
      EventStream.fromObjects(objs, cfg.windowMillis).foreach(e => hash = mix(hash, det.onEvent(e)))
      println(f"$mode%-10s seed $seed: ${det.stats.searches} searches  hash $hash%016x")
    }
    for (r <- 0 until 2) {
      val (cfg, objs) = stream(0.1, r)
      val det  = new KCellCspot(cfg, 5)
      var hash   = 0L
      var scores = 0
      var events = 0
      EventStream.fromObjects(objs, cfg.windowMillis).foreach { e =>
        val v = det.onEvent(e)
        hash = v.foldLeft(hash)(mix)
        scores = mixScores(scores, v)
        events += 1
      }
      val rps = det.stats.sweptRects.toDouble / det.stats.searches
      println(f"kCCS(5)    stream $r: ${det.searches} searches  $rps%.1f rects/search  hash $hash%016x  " +
              f"scores ${MurmurHash3.finalizeHash(scores, events)}%08x over $events events")
    }
  }

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Answers are stored here so that no result is optimised away. */
  private var sink: AnyRef = null

  private def materialised(rateFraction: Double): Seq[(SurgeConfig, Array[Event])] =
    (0 until 3).map { r =>
      val (cfg, objs) = stream(rateFraction, r)
      (cfg, EventStream.fromObjects(objs, cfg.windowMillis).toArray)
    }

  /** Prints the bytes this thread allocates per event while `run` replays
    * `streams`: the least of three passes after a warm one, so that a pass
    * the JIT is still compiling (and not yet removing allocations from)
    * does not count.
    */
  private def bytesPerEvent(what: String, streams: Seq[(SurgeConfig, Array[Event])])
                           (run: (SurgeConfig, Array[Event]) => Unit): Unit = {
    streams.foreach(run.tupled)
    val bytes = (1 to 3).map { _ =>
      val b0 = threads.getCurrentThreadAllocatedBytes
      streams.foreach(run.tupled)
      threads.getCurrentThreadAllocatedBytes - b0
    }
    val events = streams.map(_._2.length).sum
    println(f"$what%-24s ${bytes.min.toDouble / events}%8.1f B/event  over $events events")
  }

  test("bytes allocated per event on the event path") {
    assume(threads.isThreadAllocatedMemorySupported && threads.isThreadAllocatedMemoryEnabled)
    println(f"\n=== Bytes allocated per event (seed $Seed, 3 streams each, drained) ===")

    val mgaps = materialised(1.0)
    bytesPerEvent("MGAPS process", mgaps) { (cfg, es) =>
      val det = new MGapSurge(cfg)
      es.foreach(det.process)
      sink = det
    }
    bytesPerEvent("MGAPS process+top", mgaps) { (cfg, es) =>
      val det = new MGapSurge(cfg)
      es.foreach { e => det.process(e); sink = det.top }
    }
    val ccs = materialised(0.25)
    bytesPerEvent("CCS process", ccs) { (cfg, es) =>
      val det = new CellCspot(cfg, BoundMode.Full)
      es.foreach(det.process)
      sink = det
    }
    bytesPerEvent("CCS process+query", ccs) { (cfg, es) =>
      val det = new CellCspot(cfg, BoundMode.Full)
      es.foreach { e => det.process(e); sink = det.query() }
    }
    bytesPerEvent("kCCS(5) onEvent+current", materialised(0.1)) { (cfg, es) =>
      val det = new KCellCspot(cfg, 5)
      es.foreach { e => det.onEvent(e); sink = det.current }
    }

    var hash = 0L
    var events = 0
    mgaps.foreach { case (cfg, es) =>
      val det = new MGapSurge(cfg)
      es.foreach { e =>
        det.process(e)
        hash = det.top match {
          case None    => hash * 31
          case Some(c) =>
            Seq(c.box.x0, c.box.y0, c.fc, c.fp, c.score)
              .foldLeft(hash)((a, v) => a * 31 + java.lang.Double.doubleToLongBits(v))
        }
        events += 1
      }
    }
    println(f"MGAPS answers: hash $hash%016x over $events events")
  }
}

object SearchCostBench {
  /** One CCS pass over the streams. */
  final case class Pass(searchUs: Double, processNs: Double, searches: Long, hash: Long, scores: Int,
                        bySize: Buckets, byStrips: Seq[Long], oneUs: Seq[Double], heapUpdates: Double)

  /** One kCCS(5) pass over the streams: searches by size, the mean ns of an
    * `onEvent` that did not search, and per event the heap updates, private
    * copies made and `setLevel` calls.
    */
  final case class KPass(bySize: Buckets, quietNs: Double, heapUpdates: Double, copies: Double, levelChanges: Double)

  /** Timed searches by rects swept per search. */
  final class Buckets {
    val ns       = new Array[Long](Buckets.Upper.length)
    val searches = new Array[Long](Buckets.Upper.length)

    /** A call that made `n` searches over `rects` rects in `dt` ns. */
    def add(n: Long, rects: Long, dt: Long): Unit = {
      val b = Buckets.Upper.indexWhere(rects.toDouble / n <= _)
      ns(b) += dt
      searches(b) += n
    }
  }

  object Buckets {
    private val Upper = Array(8.0, 32.0, 128.0, Double.PositiveInfinity)
    private val Names = Array("1-8", "9-32", "33-128", ">128")

    /** One line: µs per search in each bucket, median over `passes`, and
      * the bucket's share of the searches.
      */
    def report(passes: Seq[Buckets]): String = {
      val total = passes.head.searches.sum.toDouble
      Names.indices.map { b =>
        val us = passes.map(p => if (p.searches(b) == 0) 0.0 else p.ns(b) / 1e3 / p.searches(b)).sorted
        f"${Names(b)} rects: ${us(us.size / 2)}%.2f us/search (${100 * passes.head.searches(b) / total}%.1f%%)"
      }.mkString("by size: ", "  ", "")
    }
  }
}
