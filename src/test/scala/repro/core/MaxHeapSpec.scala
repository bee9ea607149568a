package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

class MaxHeapSpec extends AnyFunSuite {

  private final class E(key: Long) extends HeapEntry(key)

  private def filled(ps: (Long, Double)*): (MaxHeap[E], Map[Long, E]) = {
    val h  = new MaxHeap[E]
    val es = ps.map { case (k, p) => val e = new E(k); h.update(e, p); k -> e }.toMap
    (h, es)
  }

  test("top on an empty heap is null") {
    val h = new MaxHeap[E]
    assert(h.top == null && h.pop() == null && h.size == 0)
  }

  test("update then top returns the max") {
    val (h, es) = filled(1L -> 1.0, 2L -> 5.0, 3L -> 3.0)
    assert(h.top eq es(2L))
    assert(h.top.prio == 5.0)
  }

  test("updating a priority downward is observed") {
    val (h, es) = filled(1L -> 5.0, 2L -> 3.0)
    h.update(es(1L), 1.0)
    assert(h.top eq es(2L))
  }

  test("remove drops an entry") {
    val (h, es) = filled(1L -> 5.0, 2L -> 3.0)
    h.remove(es(1L))
    assert(h.top eq es(2L))
    h.remove(es(1L)) // not in the heap: no-op
    h.remove(es(2L))
    assert(h.top == null && h.size == 0)
  }

  test("pop removes and returns the max; re-update restores") {
    val (h, es) = filled(1L -> 5.0, 2L -> 3.0)
    assert(h.pop() eq es(1L))
    assert(h.top eq es(2L))
    h.update(es(1L), 5.0)
    assert(h.top eq es(1L))
    assert(h.size == 2)
  }

  test("re-updating an entry at its priority keeps one entry") {
    val (h, es) = filled(1L -> 5.0, 2L -> 5.0)
    (1 to 3).foreach(_ => h.update(es(2L), 5.0))
    assert(h.size == 2)
    assert(h.pop() eq es(1L))
    assert(h.pop() eq es(2L))
    assert(h.pop() == null)
  }

  test("re-keying entries at their own priorities moves nothing") {
    val rng = new Random(3)
    val h   = new MaxHeap[E]
    val es  = (0L until 40L).map(new E(_))
    es.foreach(h.update(_, rng.nextInt(10).toDouble)) // ties across keys
    val slots = es.map(_.slot)
    es.reverse.foreach(e => h.update(e, e.prio))
    assert(es.map(_.slot) == slots && h.size == 40)
    val popped = Iterator.continually(h.pop()).takeWhile(_ != null).map(e => (-e.prio, e.key)).toList
    assert(popped == popped.sorted && popped.size == 40)
    h.update(es(5), es(5).prio) // out of the heap, the same call inserts it
    assert(h.size == 1 && (h.top eq es(5)))
  }

  test("equal priorities pop in key order whatever the push order") {
    val rng  = new Random(7)
    val keys = (-8L until 8L).map(_ << 31) // negative and positive, across the 32-bit halves
    (0 until 20).foreach { _ =>
      val h = new MaxHeap[E]
      val order = keys.toArray
      for (i <- order.indices.reverse) {
        val j = rng.nextInt(i + 1); val t = order(i); order(i) = order(j); order(j) = t
      }
      order.foreach { k =>
        val e = new E(k)
        h.update(e, rng.nextDouble()) // pushed once at a random priority,
        h.update(e, 1.0)              // then moved to the shared one
      }
      val popped = Iterator.continually(h.pop()).takeWhile(_ != null).map(_.key).toList
      assert(popped == keys.toList)
    }
  }

  // kCCS's copies share their store cell's key, so entries may tie on both
  // priority and key; every slot must still come at or after its parent.
  for (seed <- 0 until 5)
    test(s"duplicate keys keep the heap order slot by slot, seed $seed") {
      val rng = new Random(seed)
      val h   = new MaxHeap[E]
      val es  = (0 until 60).map(i => new E(i % 7))
      (1 to 3000).foreach { _ =>
        val e = es(rng.nextInt(es.size))
        if (rng.nextInt(4) == 0) h.remove(e) else h.update(e, rng.nextInt(6).toDouble)
        (0 until h.size).foreach { i =>
          assert(h(i).slot == i)
          if (i > 0) {
            val (p, c) = (h((i - 1) / 2), h(i))
            assert(p.prio > c.prio || p.prio == c.prio && p.key <= c.key, s"slot $i above its parent")
          }
        }
      }
      assert(h.size == es.count(_.slot >= 0))
    }

  for (seed <- 0 until 20)
    test(s"randomized equivalence with a reference map, seed $seed") {
      val rng = new Random(seed)
      val h   = new MaxHeap[E]
      val es  = (0L until 50L).map(new E(_))
      val ref = mutable.HashMap.empty[Long, Double]
      (1 to 2000).foreach { _ =>
        rng.nextInt(5) match {
          case 0 | 1 =>
            val k = rng.nextInt(50); val p = rng.nextInt(1000) / 10.0
            h.update(es(k), p); ref(k.toLong) = p
          case 2 =>
            val k = rng.nextInt(50)
            h.remove(es(k)); ref.remove(k.toLong)
          case 3 =>
            if (ref.isEmpty) assert(h.top == null)
            else {
              val max = ref.values.max
              assert(h.top.prio == max)
              assert(h.top.key == ref.collect { case (k, p) if p == max => k }.min)
              assert(h.belowTop == (ref - h.top.key).values.maxOption.getOrElse(Double.NegativeInfinity))
            }
          case 4 =>
            val e = h.pop()
            if (ref.isEmpty) assert(e == null)
            else {
              assert(ref(e.key) == e.prio && e.prio == ref.values.max)
              ref.remove(e.key)
            }
        }
      }
      assert(h.size == ref.size)
    }
}
