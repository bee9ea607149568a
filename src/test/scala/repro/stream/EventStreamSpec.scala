package repro.stream

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGen
import repro.core._
import scala.collection.mutable

class EventStreamSpec extends AnyFunSuite {
  private val W = 1000L

  test("a drained stream emits exactly 3 events per object") {
    val objs = TestGen.stream(1, 50)
    val evts = EventStream.fromObjects(objs, W).toVector
    assert(evts.length == 150)
    assert(evts.count(_.kind == EventKind.New) == 50)
    assert(evts.count(_.kind == EventKind.Grown) == 50)
    assert(evts.count(_.kind == EventKind.Expired) == 50)
  }

  test("event times are non-decreasing") {
    val evts = EventStream.fromObjects(TestGen.stream(2, 80), W).toVector
    evts.sliding(2).foreach {
      case Seq(a, b) => assert(a.at <= b.at, s"$a then $b")
      case _         => ()
    }
  }

  test("transition times are t+W and t+2W") {
    val evts = EventStream.fromObjects(TestGen.stream(3, 40), W).toVector
    evts.foreach { e =>
      e.kind match {
        case EventKind.New     => assert(e.at == e.obj.t)
        case EventKind.Grown   => assert(e.at == e.obj.t + W)
        case EventKind.Expired => assert(e.at == e.obj.t + 2 * W)
      }
    }
  }

  test("pending transitions fire before arrivals with the same timestamp") {
    val objs = IndexedSeq(
      SpatialObj(0, 1, 0, 0, 1000L),
      SpatialObj(1, 1, 1, 1, 2000L), // arrives exactly when obj 0 grows
      SpatialObj(2, 1, 2, 2, 3000L), // arrives exactly when obj 0 expires
    )
    val evts = EventStream.fromObjects(objs, W).toVector
    val grown0  = evts.indexWhere(e => e.kind == EventKind.Grown && e.obj.id == 0)
    val new1    = evts.indexWhere(e => e.kind == EventKind.New && e.obj.id == 1)
    val exp0    = evts.indexWhere(e => e.kind == EventKind.Expired && e.obj.id == 0)
    val new2    = evts.indexWhere(e => e.kind == EventKind.New && e.obj.id == 2)
    assert(grown0 < new1)
    assert(exp0 < new2)
  }

  test("expired precedes grown at equal firing times") {
    val objs = IndexedSeq(
      SpatialObj(0, 1, 0, 0, 1000L), // expires at 3000
      SpatialObj(1, 1, 1, 1, 2000L), // grows at 3000
      SpatialObj(2, 1, 2, 2, 5000L),
    )
    val evts = EventStream.fromObjects(objs, W).toVector
    val exp0   = evts.indexWhere(e => e.kind == EventKind.Expired && e.obj.id == 0)
    val grown1 = evts.indexWhere(e => e.kind == EventKind.Grown && e.obj.id == 1)
    assert(exp0 < grown1)
  }

  test("drainTail=false stops at the last arrival") {
    val objs = TestGen.stream(4, 30)
    val evts = EventStream.fromObjects(objs, W, drainTail = false).toVector
    assert(evts.last.kind == EventKind.New)
    assert(evts.count(_.kind == EventKind.New) == 30)
    assert(evts.length < 90)
  }

  for (seed <- 0 until 10)
    test(s"window-membership invariant holds after every event, seed $seed") {
      val objs = TestGen.stream(seed, 60, span = 2500L)
      val live = mutable.HashMap.empty[Long, SpatialObj]
      EventStream.fromObjects(objs, W).foreach { e =>
        e.kind match {
          case EventKind.New     => live(e.obj.id) = e.obj
          case EventKind.Grown   => ()
          case EventKind.Expired => live.remove(e.obj.id)
        }
        // every live object is in a window; every processed Grown object is Past
        live.values.foreach { o =>
          assert(Win.of(o.t, e.at, W) != Win.Out, s"live obj $o is Out at ${e.at}")
        }
        e.kind match {
          case EventKind.New     => assert(Win.of(e.obj.t, e.at, W) == Win.Cur)
          case EventKind.Grown   => assert(Win.of(e.obj.t, e.at, W) == Win.Past)
          case EventKind.Expired => assert(Win.of(e.obj.t, e.at, W) == Win.Out)
        }
      }
      assert(live.isEmpty)
    }

  test("matches a reference sort of all 3n events on tie-heavy streams") {
    val rank = Map[EventKind, Int](EventKind.Expired -> 0, EventKind.Grown -> 1, EventKind.New -> 2)
    for (seed <- 0 until 5; drainTail <- Seq(true, false)) {
      val objs = TestGen.tiedStream(seed, 150)
      val all = objs.zipWithIndex.flatMap { case (o, i) =>
        Seq(Event(o, EventKind.New, o.t), Event(o, EventKind.Grown, o.t + W),
            Event(o, EventKind.Expired, o.t + 2 * W)).map(e => (e, i))
      }.sortBy { case (e, i) => (e.at, rank(e.kind), i) }.map(_._1)
      val expected = if (drainTail) all else all.take(all.lastIndexWhere(_.kind == EventKind.New) + 1)
      // the stream really is tie-heavy: every kind meets another at some instant
      val kindsAt = all.groupBy(_.at).values.map(_.map(_.kind).toSet)
      assert(kindsAt.exists(ks => ks.contains(EventKind.Expired) && ks.contains(EventKind.Grown) && ks.contains(EventKind.New)))
      assert(EventStream.fromObjects(objs, W, drainTail).toVector == expected, s"seed $seed, drainTail=$drainTail")
    }
  }

  private def rejects(objs: IndexedSeq[SpatialObj], mentions: String*): Unit = {
    val ex = intercept[IllegalArgumentException](EventStream.fromObjects(objs, W).toVector)
    mentions.foreach(m => assert(ex.getMessage.contains(m), s"'${ex.getMessage}' does not mention $m"))
  }

  test("rejects an arrival earlier than the previous one") {
    rejects(IndexedSeq(SpatialObj(0, 1, 0, 0, 1000L), SpatialObj(1, 1, 0, 0, 2000L),
                       SpatialObj(7, 1, 0, 0, 1999L)), "object 7", "1999", "2000")
  }

  test("rejects a non-finite position") {
    for ((x, y) <- Seq((Double.NaN, 0.0), (0.0, Double.PositiveInfinity), (Double.NegativeInfinity, 1.0)))
      rejects(IndexedSeq(SpatialObj(0, 1, 0, 0, 1000L), SpatialObj(3, 1, x, y, 1000L)),
              "object 3", x.toString, y.toString)
  }

  test("rejects a weight that is not finite and positive") {
    for (w <- Seq(0.0, -2.0, Double.NaN, Double.PositiveInfinity))
      rejects(IndexedSeq(SpatialObj(0, 1, 0, 0, 1000L), SpatialObj(5, w, 0, 0, 1500L)),
              "object 5", w.toString)
  }

  test("deterministic: two iterations yield identical sequences") {
    val objs = TestGen.stream(6, 50)
    val a = EventStream.fromObjects(objs, W).toVector
    val b = EventStream.fromObjects(objs, W).toVector
    assert(a == b)
  }
}
