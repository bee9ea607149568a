package repro.core

/** A uniform grid of `cellW×cellH` cells anchored at `(offX, offY)`
  * (Definition 6 uses `cellW = b`, `cellH = a`, zero offsets; the shifted
  * grids of MGAP-SURGE use half-cell offsets; aG2 uses `10b×10a` cells).
  *
  * Cell `(i, j)` is the closed box
  * `[offX + i·cellW, offX + (i+1)·cellW] × [offY + j·cellH, offY + (j+1)·cellH]`,
  * named by the packed key `Grid.key(i, j)`.
  */
final class Grid(val cellW: Double, val cellH: Double,
                 val offX: Double = 0.0, val offY: Double = 0.0) extends Serializable {
  require(cellW > 0 && cellH > 0, "cell size must be positive")

  /** Key of the cell containing point `(x, y)` (boundary points resolve to
    * the right/upper cell via floor semantics).
    */
  def cellOf(x: Double, y: Double): Long =
    Grid.key(math.floor((x - offX) / cellW).toLong, math.floor((y - offY) / cellH).toLong)

  /** Closed extent of cell `key`. */
  def cellBox(key: Long): Box = {
    val x0 = offX + Grid.i(key) * cellW
    val y0 = offY + Grid.j(key) * cellH
    Box(x0, y0, x0 + cellW, y0 + cellH)
  }

  /** Calls `f` with the key of every cell whose closed extent intersects
    * box `b`, in `(i, j)` order.
    *
    * For a box of exactly one cell size this is at most 4 cells in general
    * position (Lemma 1) and up to 9 when edges are exactly grid-aligned —
    * the conservative closed assignment keeps boundary points searchable
    * from every touching cell, and gives every cell all the rects that
    * cover any point of its closed extent. A low edge on grid line `i`
    * therefore also touches cell `i−1` (hence `ceil − 1` on the low side).
    * Both corners are range-checked before `f` is first called, so a box
    * outside the index range changes nothing and the loops cannot wrap.
    */
  def foreachCell(b: Box)(f: Long => Unit): Unit = {
    val i0 = math.ceil((b.x0 - offX) / cellW).toLong - 1
    val i1 = math.floor((b.x1 - offX) / cellW).toLong
    val j0 = math.ceil((b.y0 - offY) / cellH).toLong - 1
    val j1 = math.floor((b.y1 - offY) / cellH).toLong
    Grid.key(i0, j0)
    Grid.key(i1, j1)
    var i = i0
    while (i <= i1) {
      var j = j0
      while (j <= j1) { f(Grid.key(i, j)); j += 1 }
      i += 1
    }
  }
}

/** The packed cell key: `i` in the high 32 bits and `j + 2³¹` in the low 32,
  * so the signed `Long` order of keys is the lexicographic order of `(i, j)`.
  */
object Grid {

  /** Key of cell `(i, j)`; both indices must lie in `[−2³¹, 2³¹)`. */
  def key(i: Long, j: Long): Long = {
    require(i == i.toInt && j == j.toInt, s"cell ($i, $j) is outside the grid's index range [-2^31, 2^31)")
    i << 32 | (j + (1L << 31))
  }

  /** Column index of cell `key`. */
  def i(key: Long): Long = key >> 32

  /** Row index of cell `key`. */
  def j(key: Long): Long = (key & 0xFFFFFFFFL) - (1L << 31)
}
