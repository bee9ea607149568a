package repro.core

import java.util.Random
import scala.collection.mutable.ArrayBuffer
import org.scalatest.funsuite.AnyFunSuite

/** `SearchRegion.Walk` against the loop it replaced, which pops each valid
  * region off the heap, searches each invalid top in place, and re-pushes
  * the popped regions at the end. Both run on random heaps of scripted
  * regions, built twice from one script, and must give the same answer (the
  * same candidate object) and search the same regions in the same order.
  *
  * Bounds and scores are small integers, so priorities tie across keys and
  * candidates tie across regions. A valid region's score may sit below its
  * bound, as aG2's do, and a search may raise a region's bound. With `skip`,
  * each key has a store region and copies for some of layers 1–3, sharing
  * its key; the walk runs on all of them and leaves out, for one layer, the
  * copies of other layers and the store regions that layer copies, and the
  * loop runs on a heap of only the regions that layer sees.
  */
class SearchRegionSpec extends AnyFunSuite {

  // Queries per heap; a query searches a region at most once.
  private val Rounds = 4

  /** A region's script: its state at the start, the state each of its
    * searches leaves, and the state each round between queries sets.
    */
  private final case class State(bound: Double, valid: Boolean, cand: BurstyPoint)
  private final case class Script(key: Long, layer: Int, start: State, searched: IndexedSeq[State],
                                  rounds: IndexedSeq[Option[State]])

  private final class Reg(val id: Int, s: Script, log: ArrayBuffer[Int]) extends SearchRegion(s.key) {
    val layer = s.layer
    var bound: Double = s.start.bound
    var candValid: Boolean = s.start.valid
    var cand: BurstyPoint = s.start.cand
    private var searches = 0

    def set(st: State): Unit = { bound = st.bound; candValid = st.valid; cand = st.cand }

    def search(): Unit = { log += id; set(s.searched(searches)); searches += 1 }
  }

  private var points = 0

  /** A fresh point of score `score`: candidates are told apart by identity. */
  private def point(score: Double): BurstyPoint = { points += 1; BurstyPoint(points, 0.0, score, 0.0, score) }

  /** A valid state has a score at most its bound, often below it. */
  private def state(rng: Random, bound: Double, valid: Boolean): State = {
    val score = if (rng.nextInt(3) == 0) bound else math.max(0.0, bound - rng.nextInt(3))
    State(bound, valid, point(if (valid) score else rng.nextInt(10).toDouble))
  }

  private def script(rng: Random, copies: Boolean): IndexedSeq[Script] = {
    val keys = 1 + rng.nextInt(24)
    for {
      key   <- 0 until keys
      layer <- 0 +: (if (copies) (1 to 3).filter(_ => rng.nextInt(4) == 0) else Nil)
    } yield {
      val start = state(rng, rng.nextInt(8).toDouble, rng.nextBoolean())
      // A search leaves the region valid, at a bound up to 2 above or below its old one.
      var b = start.bound
      val searched = (0 until Rounds).map { _ =>
        b = math.max(0.0, b + rng.nextInt(5) - 2)
        state(rng, b, valid = true)
      }
      val rounds = (0 until Rounds).map { _ =>
        if (rng.nextInt(3) == 0) Some(state(rng, rng.nextInt(8).toDouble, rng.nextBoolean())) else None
      }
      Script(key * 1000003L - 7, layer, start, searched, rounds)
    }
  }

  /** The loop `Walk` replaced, as it stood. */
  private def popLoop(heap: MaxHeap[Reg]): Option[BurstyPoint] = {
    val top = heap.top
    if (top != null && top.candValid && heap.belowTop <= top.cand.score + 1e-9) return Some(top.cand)
    var r = heap.top
    var best: BurstyPoint = null
    val stash = ArrayBuffer.empty[Reg]
    while (r != null && (best == null || r.prio > best.score + 1e-9)) {
      if (!r.candValid) {
        r.search()
        heap.update(r, r.bound)
      } else {
        if (best == null || r.cand.score > best.score) best = r.cand
        stash += heap.pop()
      }
      r = heap.top
    }
    stash.foreach(s => heap.update(s, s.bound))
    Option(best)
  }

  private final class LayerWalk(heap: MaxHeap[Reg], regs: IndexedSeq[Reg], layer: Int)
      extends SearchRegion.Walk(heap) {
    private val copied = regs.filter(_.layer == layer).map(_.key).toSet
    def hides(r: Reg): Boolean = if (r.layer == 0) layer != 0 && copied(r.key) else r.layer != layer
    override protected def skip(r: Reg): Boolean = hides(r)
  }

  private def compare(seed: Int, copies: Boolean): Int = {
    val rng     = new Random(seed)
    val regions = script(rng, copies)
    val layer   = if (copies) rng.nextInt(4) else 0
    val (walkLog, loopLog) = (ArrayBuffer.empty[Int], ArrayBuffer.empty[Int])
    val all  = regions.indices.map(i => new Reg(i, regions(i), walkLog))
    val walkHeap = new MaxHeap[Reg]
    all.foreach(r => walkHeap.update(r, r.bound))
    val walk = new LayerWalk(walkHeap, all, layer)
    val seen = regions.indices.filterNot(i => walk.hides(all(i)))
    val mine = seen.map(i => new Reg(i, regions(i), loopLog))
    val loopHeap = new MaxHeap[Reg]
    mine.foreach(r => loopHeap.update(r, r.bound))
    var searched = 0
    (0 until Rounds).foreach { round =>
      val slots = all.map(_.slot)
      val (got, want) = (walk.best(), popLoop(loopHeap))
      assert(walkLog == loopLog, s"seed $seed round $round: walk searched $walkLog, the loop $loopLog")
      assert(got.orNull eq want.orNull, s"seed $seed round $round: walk $got, the loop $want")
      if (walkLog.isEmpty) assert(all.map(_.slot) == slots, s"seed $seed round $round: a walk with no search moved")
      searched += walkLog.size
      walkLog.clear(); loopLog.clear()
      for (i <- regions.indices; st <- regions(i).rounds(round)) {
        all(i).set(st); walkHeap.update(all(i), st.bound)
      }
      for ((i, r) <- seen.zip(mine); st <- regions(i).rounds(round)) { r.set(st); loopHeap.update(r, st.bound) }
    }
    searched
  }

  for (seed <- 0 until 4)
    test(s"Walk searches and answers as the pop loop did, ties and rising bounds, seed block $seed") {
      val searched = (0 until 200).map(t => compare(1000 * seed + t, copies = false)).sum
      assert(searched > 0)
    }

  for (seed <- 0 until 4)
    test(s"Walk with skip over regions sharing a key answers as the pop loop on one layer's regions, seed block $seed") {
      val searched = (0 until 200).map(t => compare(5000 + 1000 * seed + t, copies = true)).sum
      assert(searched > 0)
    }
}
