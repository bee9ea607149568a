package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.SurgeConfig

/** GAP-SURGE expressed as a Catalyst (DataFrame) aggregation over a
  * snapshot: the windowed spatial aggregation of the repro mapping.
  *
  * Input: a DataFrame of spatial objects with columns
  * `w: double, x: double, y: double, t: long` (epoch millis; extra columns
  * are ignored). At evaluation time `now`, each object is classified into
  * the current window `(now−|W|, now]` or past window `(now−2|W|, now−|W|]`,
  * bucketed into its `b×a` grid cell with `floor`, and conditionally
  * aggregated; the burst score of Definition 1 is computed per cell.
  */
object GridBurstBatch {

  /** Per-cell scores: `cx, cy, fc, fp, score`. */
  def cellScores(objs: DataFrame, cfg: SurgeConfig, now: Long,
                 offX: Double = 0.0, offY: Double = 0.0): DataFrame = {
    val w  = cfg.windowMillis
    val inCur  = col("t") > now - w && col("t") <= now
    val inPast = col("t") > now - 2 * w && col("t") <= now - w
    objs
      .filter(inCur || inPast)
      .select(
        floor((col("x") - offX) / cfg.rectW).cast("long").as("cx"),
        floor((col("y") - offY) / cfg.rectH).cast("long").as("cy"),
        when(inCur, col("w")).otherwise(0.0).as("wc"),
        when(inPast, col("w")).otherwise(0.0).as("wp"),
      )
      .groupBy("cx", "cy")
      .agg(
        (sum("wc") / cfg.windowNorm).as("fc"),
        (sum("wp") / cfg.windowNorm).as("fp"),
      )
      .withColumn("score", burstScore(cfg))
  }

  /** Burst score `α·max(fc−fp, 0) + (1−α)·fc` (Definition 1) over the
    * `fc` and `fp` columns.
    */
  private[spark] def burstScore(cfg: SurgeConfig): Column =
    lit(cfg.alpha) * greatest(col("fc") - col("fp"), lit(0.0)) + lit(1 - cfg.alpha) * col("fc")

  /** The top-k cells by burst score (kGAPS on a snapshot). */
  def topKCells(objs: DataFrame, cfg: SurgeConfig, now: Long, k: Int,
                offX: Double = 0.0, offY: Double = 0.0): DataFrame =
    cellScores(objs, cfg, now, offX, offY)
      .orderBy(col("score").desc, col("cx"), col("cy"))
      .limit(k)

  /** MGAPS on a snapshot: best cell across the four half-shifted grids.
    * Returns `grid, cx, cy, fc, fp, score` rows, one per grid, so the
    * caller can take the max or inspect all four.
    */
  def multiGridTop(objs: DataFrame, cfg: SurgeConfig, now: Long): DataFrame = {
    val offs = Seq(
      (0, 0.0, 0.0),
      (1, cfg.rectW / 2, 0.0),
      (2, 0.0, cfg.rectH / 2),
      (3, cfg.rectW / 2, cfg.rectH / 2),
    )
    offs
      .map { case (g, ox, oy) =>
        topKCells(objs, cfg, now, 1, ox, oy).withColumn("grid", lit(g))
      }
      .reduce(_ unionByName _)
      .select("grid", "cx", "cy", "fc", "fp", "score")
  }
}
