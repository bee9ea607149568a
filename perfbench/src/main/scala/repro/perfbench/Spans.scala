package repro.perfbench

import java.io.{BufferedWriter, File, FileOutputStream, OutputStreamWriter}
import java.util.zip.GZIPOutputStream
import scala.collection.mutable

/** In-memory span log of a traced run. A span is a name, a start and end in
  * `System.nanoTime` units and the index of the span that caused it (-1 for
  * a root). Spans are appended in start order, so a parent always precedes
  * its children. The log grows as needed and is written out once at the end.
  */
final class SpanLog(initialCapacity: Int) {
  private var names   = new Array[Byte](initialCapacity)
  private var parents = new Array[Int](initialCapacity)
  private var starts  = new Array[Long](initialCapacity)
  private var ends    = new Array[Long](initialCapacity)
  var size = 0

  /** Records a finished span and returns its index. */
  def add(name: Byte, parent: Int, start: Long, end: Long): Int = {
    if (size == names.length) grow()
    names(size) = name; parents(size) = parent; starts(size) = start; ends(size) = end
    size += 1
    size - 1
  }

  /** Opens a span whose end is set later with [[close]]. */
  def open(name: Byte, parent: Int, start: Long): Int = add(name, parent, start, start)
  def close(i: Int, end: Long): Unit = ends(i) = end

  private def grow(): Unit = {
    val n = names.length * 2
    names = java.util.Arrays.copyOf(names, n); parents = java.util.Arrays.copyOf(parents, n)
    starts = java.util.Arrays.copyOf(starts, n); ends = java.util.Arrays.copyOf(ends, n)
  }

  /** Per-name totals: count, summed duration, summed self time (duration
    * minus the time covered by the span's children) and all durations.
    */
  def summary(): Map[Byte, SpanLog.Layer] = {
    val childNs = new Array[Long](size)
    var i = 0
    while (i < size) {
      if (parents(i) >= 0) childNs(parents(i)) += ends(i) - starts(i)
      i += 1
    }
    val durs = mutable.HashMap.empty[Byte, mutable.ArrayBuilder.ofLong]
    val self = mutable.HashMap.empty[Byte, Long].withDefaultValue(0L)
    i = 0
    while (i < size) {
      val d = ends(i) - starts(i)
      durs.getOrElseUpdate(names(i), new mutable.ArrayBuilder.ofLong) += d
      self(names(i)) += d - childNs(i)
      i += 1
    }
    durs.map { case (n, b) =>
      val ds = b.result()
      java.util.Arrays.sort(ds)
      n -> SpanLog.Layer(ds, self(n))
    }.toMap
  }

  /** Writes `id, parent, name, start, end` rows (times relative to the first
    * span) as gzipped TSV.
    */
  def writeTsv(file: File, nameOf: Byte => String): Unit = {
    file.getParentFile.mkdirs()
    val w = new BufferedWriter(new OutputStreamWriter(
      new GZIPOutputStream(new FileOutputStream(file), 1 << 16), "UTF-8"), 1 << 16)
    try {
      w.write("id\tparent\tname\tstart_ns\tend_ns\n")
      val t0 = if (size == 0) 0L else starts(0)
      var i = 0
      while (i < size) {
        w.write(s"$i\t${parents(i)}\t${nameOf(names(i))}\t${starts(i) - t0}\t${ends(i) - t0}\n")
        i += 1
      }
    } finally w.close()
  }
}

object SpanLog {
  /** Durations (ascending) and summed self time of one span name. */
  final case class Layer(durations: Array[Long], selfNs: Long) {
    def count: Int = durations.length
    def totalNs: Long = durations.sum
    def meanNs: Double = if (count == 0) 0.0 else totalNs.toDouble / count
  }
}
