package repro.core

import java.util.Random
import org.scalatest.funsuite.AnyFunSuite

class GridSpec extends AnyFunSuite {

  /** The keys `foreachCell` visits, in visiting order. */
  private def cells(g: Grid, b: Box): IndexedSeq[Long] = {
    val out = IndexedSeq.newBuilder[Long]
    g.foreachCell(b)(out += _)
    out.result()
  }

  private def ij(key: Long): (Long, Long) = (Grid.i(key), Grid.j(key))

  test("key, i and j round-trip negative, zero and positive indices") {
    val edge = Seq(Int.MinValue.toLong, Int.MinValue + 1L, -2L, -1L, 0L, 1L, 2L, Int.MaxValue - 1L, Int.MaxValue.toLong)
    for (i <- edge; j <- edge) assert(ij(Grid.key(i, j)) == ((i, j)))
    val rng = new Random(5)
    (1 to 1000).foreach { _ =>
      val i = rng.nextInt().toLong; val j = rng.nextInt().toLong
      assert(ij(Grid.key(i, j)) == ((i, j)))
    }
  }

  test("packed key order equals (i, j) lexicographic order") {
    val rng = new Random(6)
    // small indices make equal columns common, so the row order is exercised too
    def index(): Long = if (rng.nextBoolean()) rng.nextInt(5) - 2L else rng.nextInt().toLong
    (1 to 5000).foreach { _ =>
      val a = (index(), index()); val b = (index(), index())
      val byKey = java.lang.Long.compare(Grid.key(a._1, a._2), Grid.key(b._1, b._2)).sign
      val byIJ  = Ordering[(Long, Long)].compare(a, b).sign
      assert(byKey == byIJ, s"$a vs $b")
    }
  }

  test("key rejects an index outside [-2^31, 2^31)") {
    val out = Seq(Int.MaxValue + 1L, Int.MinValue - 1L, Long.MaxValue, Long.MinValue)
    out.foreach { v =>
      assertThrows[IllegalArgumentException](Grid.key(v, 0L))
      assertThrows[IllegalArgumentException](Grid.key(0L, v))
    }
  }

  test("cellOf and foreachCell reject a coordinate past the index range without calling f") {
    val g = new Grid(1.0, 1.0)
    assertThrows[IllegalArgumentException](g.cellOf(1e300, 0.0))
    assertThrows[IllegalArgumentException](g.cellOf(0.0, -1e300))
    var calls = 0
    assertThrows[IllegalArgumentException](g.foreachCell(Box(1e300, 0.0, 1e300 + 1, 1.0))(_ => calls += 1))
    // columns 2³¹−2 and 2³¹−1 are in range, 2³¹ is not: no cell may be visited first
    assertThrows[IllegalArgumentException](g.foreachCell(Box(Int.MaxValue - 0.5, 0.0, Int.MaxValue + 1.5, 1.0))(_ => calls += 1))
    assert(calls == 0)
  }

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
    assert(ij(g.cellOf(0.4, 0.4)) == ((-1L, -1L)))
    assert(ij(g.cellOf(0.6, 0.6)) == ((0L, 0L)))
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
        val keys = cells(g, b).toSet
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
      val n = cells(g, Box(x, y, x + 1.0, y + 1.0)).size
      assert(n <= 4, s"rect at ($x,$y) overlapped $n cells")
    }
  }

  test("grid-aligned rect conservatively maps to the touching cells too") {
    val g = new Grid(1.0, 1.0)
    val keys = cells(g, Box(2.0, 3.0, 3.0, 4.0)).toSet
    assert(keys.contains(Grid.key(2L, 3L)))
    // boundary-touching neighbours included (closed semantics)
    assert(keys.contains(Grid.key(3L, 4L)))
  }

  test("a grid-aligned cell-sized rect maps to exactly the 9 cells it touches") {
    val g = new Grid(1.0, 0.5, 0.25, 0.0)
    val b = Box(2.25, 1.5, 3.25, 2.0) // edges on grid lines x = 2.25, 3.25 and y = 1.5, 2.0
    val expected = for (i <- 1L to 3L; j <- 2L to 4L) yield Grid.key(i, j)
    assert(cells(g, b) == expected) // visited in (i, j) order
    expected.foreach(k => assert(g.cellBox(k).intersectsClosed(b)))
  }
}
