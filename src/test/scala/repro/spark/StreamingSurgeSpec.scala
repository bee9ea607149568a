package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGen}
import repro.core._

/** Test tuple: epoch millis + position + weight. Top-level, so that Spark's
  * whole-stage code generation can construct it (a class nested in the
  * suite needs the suite instance, which generated code does not have).
  */
final case class TP(tMillis: Long, x: Double, y: Double, w: Double)

/** Structured Streaming hopping-window detector: the streaming aggregation
  * must equal a from-scratch computation over the same tuples, and the
  * window-pairing join of `burstScores` must match the DuckDB oracle.
  */
class StreamingSurgeSpec extends SparkSpec {

  private def mkObjs(seed: Int, n: Int, spanMs: Long): Seq[TP] = {
    val rng = new java.util.Random(seed)
    (0 until n).map { i =>
      TP(100000L + (i.toDouble / n * spanMs).toLong,
         rng.nextDouble() * 8, rng.nextDouble() * 8, 1.0 + rng.nextInt(100))
    }
  }

  /** Reference hopping-window per-cell sums in plain Scala. */
  private def refSums(objs: Seq[TP], cfg: SurgeConfig): Map[(Long, Long, Long), Double] =
    objs.groupBy { o =>
      val ws = math.floorDiv(o.tMillis, cfg.windowMillis) * cfg.windowMillis / 1000
      (ws, math.floor(o.x / cfg.rectW).toLong, math.floor(o.y / cfg.rectH).toLong)
    }.map { case (k, os) => k -> os.map(_.w).sum }

  private def runStream(objs: Seq[TP], cfg: SurgeConfig, name: String) = {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val stream = MemoryStream[TP]
    val sums = StreamingSurge.cellWindowSums(
      stream.toDF().withColumn("ts", expr("timestamp_millis(tMillis)")), cfg)
    val q = sums.writeStream.format("memory").queryName(name).outputMode("complete").start()
    // feed in three chunks to exercise incremental state updates
    objs.grouped(math.max(1, objs.size / 3)).foreach { chunk =>
      stream.addData(chunk)
      q.processAllAvailable()
    }
    q.stop()
    spark.table(name)
  }

  test("streaming sums match reference exactly (values and keys)") {
    val cfg  = TestGen.cfg(windowMillis = 10000L, alpha = 0.5)
    val objs = mkObjs(2, 500, 60000L)
    val table = runStream(objs, cfg, "sums_b")
    val got = table
      .select(col("window.start").cast("long").as("ws"), col("cx"), col("cy"), col("wsum"))
      .collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2)) -> r.getDouble(3))
      .toMap
    val ref = refSums(objs, cfg)
    assert(got.keySet == ref.keySet)
    got.foreach { case (k, v) => assert(math.abs(v - ref(k)) < 1e-6, s"at $k") }
  }

  test("burstScores pairs consecutive windows per cell (DuckDB oracle)") {
    val cfg  = TestGen.cfg(windowMillis = 10000L, alpha = 0.4)
    val objs = mkObjs(3, 500, 80000L)
    val sums = runStream(objs, cfg, "sums_c")
    val got  = StreamingSurge.burstScores(sums, cfg)
    val flat = sums.select(
      col("window.start").cast("long").as("ws"),
      col("cx"), col("cy"), col("wsum"))
    val wSec = cfg.windowMillis / 1000
    val sql =
      s"""
         |SELECT CAST(c.ws AS BIGINT) AS ws, CAST(c.cx AS BIGINT) AS cx, CAST(c.cy AS BIGINT) AS cy,
         |       CAST(c.wsum AS DOUBLE) / ${cfg.windowNorm} AS fc,
         |       COALESCE(CAST(p.wsum AS DOUBLE), 0) / ${cfg.windowNorm} AS fp,
         |       ${cfg.alpha} * greatest(CAST(c.wsum AS DOUBLE) / ${cfg.windowNorm}
         |                               - COALESCE(CAST(p.wsum AS DOUBLE), 0) / ${cfg.windowNorm}, 0)
         |         + ${1 - cfg.alpha} * CAST(c.wsum AS DOUBLE) / ${cfg.windowNorm} AS score
         |FROM sums c
         |LEFT JOIN sums p
         |  ON CAST(c.ws AS BIGINT) = CAST(p.ws AS BIGINT) + $wSec
         | AND c.cx = p.cx AND c.cy = p.cy
         |""".stripMargin
    Oracle.assertEquivalent(got, sql, "sums" -> flat)
  }

  test("a burst in the stream surfaces as the top cell of its window") {
    val cfg = TestGen.cfg(windowMillis = 10000L, alpha = 0.5)
    // background noise + a dense burst at (4.2, 4.2) in the 3rd window
    val noise = mkObjs(4, 200, 60000L)
    val burst = (0 until 120).map(i => TP(120000L + i * 50L, 4.2, 4.2, 50.0))
    val all   = (noise ++ burst).sortBy(_.tMillis)
    val sums  = runStream(all, cfg, "sums_d")
    val top   = StreamingSurge
      .topPerWindow(StreamingSurge.burstScores(sums, cfg))
      .filter(col("ws") === 120L) // window [120s, 130s)
      .collect()
    assert(top.length == 1)
    assert(top.head.getAs[Long]("cx") == 4L && top.head.getAs[Long]("cy") == 4L)
  }

  test("topPerWindow emits exactly one row per window") {
    val cfg  = TestGen.cfg(windowMillis = 10000L)
    val objs = mkObjs(5, 300, 50000L)
    val sums = runStream(objs, cfg, "sums_e")
    val out  = StreamingSurge.topPerWindow(StreamingSurge.burstScores(sums, cfg)).collect()
    val windows = sums.select(col("window.start").cast("long")).distinct().count()
    assert(out.length.toLong == windows)
  }
}
