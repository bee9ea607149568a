package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite

class GridSpec extends AnyFunSuite {

  test("cellOf and cellBox are consistent") {
    val g = new Grid(1.0, 2.0)
    val rng = new Random(1)
    (1 to 300).foreach { _ =>
      val x = rng.nextDouble() * 40 - 20
      val y = rng.nextDouble() * 40 - 20
      val box = g.cellBox(g.cellOf(x, y))
      assert(box.contains(x, y), s"($x,$y) not in $box")
    }
  }

  test("cellOf with offsets shifts the lattice") {
    val g = new Grid(1.0, 1.0, 0.5, 0.5)
    assert(g.cellOf(0.4, 0.4) == (-1L, -1L))
    assert(g.cellOf(0.6, 0.6) == (0L, 0L))
  }

  for (seed <- 0 until 15)
    test(s"cellsOverlapping covers exactly the closed-intersecting cells, seed $seed") {
      val rng = new Random(seed)
      val g   = new Grid(1.0 + rng.nextDouble(), 1.0 + rng.nextDouble(),
                         rng.nextDouble(), rng.nextDouble())
      (1 to 50).foreach { _ =>
        val x = rng.nextDouble() * 20 - 10
        val y = rng.nextDouble() * 20 - 10
        val b = Box(x, y, x + g.cellW, y + g.cellH)
        val keys = g.cellsOverlapping(b).toSet
        // every returned cell closed-intersects the box
        keys.foreach(k => assert(g.cellBox(k).intersectsClosed(b)))
        // sampled points of the box land in returned cells
        (1 to 30).foreach { _ =>
          val px = b.x0 + rng.nextDouble() * (b.x1 - b.x0)
          val py = b.y0 + rng.nextDouble() * (b.y1 - b.y0)
          assert(keys.contains(g.cellOf(px, py)))
        }
      }
    }

  test("a cell-sized rect overlaps at most 4 cells in general position (Lemma 1)") {
    val g = new Grid(1.0, 1.0)
    val rng = new Random(99)
    (1 to 500).foreach { _ =>
      // irrational-ish offsets avoid exact grid alignment
      val x = rng.nextDouble() * 10 + 1e-7
      val y = rng.nextDouble() * 10 + 1e-7
      val n = g.cellsOverlapping(Box(x, y, x + 1.0, y + 1.0)).size
      assert(n <= 4, s"rect at ($x,$y) overlapped $n cells")
    }
  }

  test("grid-aligned rect conservatively maps to the touching cells too") {
    val g = new Grid(1.0, 1.0)
    val keys = g.cellsOverlapping(Box(2.0, 3.0, 3.0, 4.0)).toSet
    assert(keys.contains((2L, 3L)))
    // boundary-touching neighbours included (closed semantics)
    assert(keys.contains((3L, 4L)))
  }

  test("a grid-aligned cell-sized rect maps to exactly the 9 cells it touches") {
    val g = new Grid(1.0, 0.5, 0.25, 0.0)
    val b = Box(2.25, 1.5, 3.25, 2.0) // edges on grid lines x = 2.25, 3.25 and y = 1.5, 2.0
    val expected = (for (i <- 1L to 3L; j <- 2L to 4L) yield (i, j)).toSet
    assert(g.cellsOverlapping(b).toSet == expected)
    expected.foreach(k => assert(g.cellBox(k).intersectsClosed(b)))
  }
}
