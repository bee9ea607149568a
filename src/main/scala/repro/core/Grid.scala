package repro.core

/** A uniform grid of `cellW×cellH` cells anchored at `(offX, offY)`
  * (Definition 6 uses `cellW = b`, `cellH = a`, zero offsets; the shifted
  * grids of MGAP-SURGE use half-cell offsets; aG2 uses `10b×10a` cells).
  *
  * Cell `(i, j)` is the closed box
  * `[offX + i·cellW, offX + (i+1)·cellW] × [offY + j·cellH, offY + (j+1)·cellH]`.
  */
final class Grid(val cellW: Double, val cellH: Double,
                 val offX: Double = 0.0, val offY: Double = 0.0) extends Serializable {
  require(cellW > 0 && cellH > 0, "cell size must be positive")

  /** Cell containing point `(x, y)` (boundary points resolve to the
    * right/upper cell via floor semantics).
    */
  def cellOf(x: Double, y: Double): (Long, Long) =
    (math.floor((x - offX) / cellW).toLong, math.floor((y - offY) / cellH).toLong)

  /** Closed extent of cell `key`. */
  def cellBox(key: (Long, Long)): Box = {
    val x0 = offX + key._1 * cellW
    val y0 = offY + key._2 * cellH
    Box(x0, y0, x0 + cellW, y0 + cellH)
  }

  /** Keys of all cells whose closed extent intersects box `b`.
    *
    * For a box of exactly one cell size this is at most 4 cells in general
    * position (Lemma 1) and up to 9 when edges are exactly grid-aligned —
    * the conservative closed assignment keeps boundary points searchable
    * from every touching cell, and gives every cell all the rects that
    * cover any point of its closed extent. A low edge on grid line `i`
    * therefore also touches cell `i−1` (hence `ceil − 1` on the low side).
    */
  def cellsOverlapping(b: Box): IndexedSeq[(Long, Long)] = {
    val i0 = math.ceil((b.x0 - offX) / cellW).toLong - 1
    val i1 = math.floor((b.x1 - offX) / cellW).toLong
    val j0 = math.ceil((b.y0 - offY) / cellH).toLong - 1
    val j1 = math.floor((b.y1 - offY) / cellH).toLong
    val out = Vector.newBuilder[(Long, Long)]
    var i = i0
    while (i <= i1) {
      var j = j0
      while (j <= j1) { out += ((i, j)); j += 1 }
      i += 1
    }
    out.result()
  }
}
