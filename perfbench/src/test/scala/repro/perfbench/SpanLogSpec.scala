package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class SpanLogSpec extends AnyFunSuite {

  test("self time is duration minus the time of child spans") {
    val log = new SpanLog(2) // grows past its initial capacity
    val root = log.add(0, -1, 100, 200)
    log.add(1, root, 100, 130)
    log.add(2, root, 130, 180)
    val root2 = log.open(0, -1, 300)
    log.add(1, root2, 300, 310)
    log.close(root2, 320)
    val s = log.summary()
    assert(s(0).count == 2 && s(0).totalNs == 120 && s(0).selfNs == 120 - 30 - 50 - 10)
    assert(s(1).durations.toSeq == Seq(10L, 30L) && s(1).selfNs == 40)
    assert(s(2).meanNs == 50.0)
  }
}
