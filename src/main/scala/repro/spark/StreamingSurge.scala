package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.SurgeConfig

/** Continuous bursty-region detection on Structured Streaming.
  *
  * Discretisation: the paper's windows slide continuously; the standard
  * Structured Streaming surrogate is *hopping* windows of length `|W|` —
  * the burst score of cell `c` at window `n` compares window `n` (current)
  * with window `n−1` (past), which agrees with the event-driven solution
  * exactly at window boundaries (documented in DESIGN.md §3).
  *
  * `cellWindowSums` is the streaming aggregation (works on a streaming or
  * batch DataFrame with an event-time column `ts`); `burstScores` derives
  * burst scores from the materialised sums by pairing each window with its
  * predecessor per cell (a batch self-join on the sink table).
  * `|W|` must be a whole number of seconds for the streaming window DSL.
  */
object StreamingSurge {

  /** Per-(event-time window, cell) weight sums.
    *
    * @param objs streaming or batch DataFrame with `ts: timestamp, x, y, w`
    */
  def cellWindowSums(objs: DataFrame, cfg: SurgeConfig): DataFrame = {
    require(cfg.windowMillis % 1000 == 0, "streaming windows must be whole seconds")
    objs
      .groupBy(
        window(col("ts"), s"${cfg.windowMillis / 1000} seconds"),
        floor(col("x") / cfg.rectW).cast("long").as("cx"),
        floor(col("y") / cfg.rectH).cast("long").as("cy"),
      )
      .agg(sum("w").as("wsum"))
  }

  /** Burst scores per (window, cell) from materialised window sums:
    * `ws` (window start, epoch seconds), `cx`, `cy`, `fc`, `fp`, `score`.
    * A cell absent from the previous window contributes `fp = 0`.
    *
    * Implemented with `lag` over a per-cell event-time window rather than a
    * self-join: same semantics (the previous *consecutive* window's sum, 0
    * when there is a gap), no self-join ambiguity on sink views.
    */
  def burstScores(sums: DataFrame, cfg: SurgeConfig): DataFrame = {
    import org.apache.spark.sql.expressions.Window
    val wSec   = cfg.windowMillis / 1000
    val byCell = Window.partitionBy("cx", "cy").orderBy("ws")
    sums
      .select(col("window.start").cast("long").as("ws"), col("cx"), col("cy"), col("wsum"))
      .withColumn("prevWs", lag("ws", 1).over(byCell))
      .withColumn(
        "wprev",
        when(col("prevWs") === col("ws") - wSec, lag("wsum", 1).over(byCell)).otherwise(0.0),
      )
      .select(
        col("ws"), col("cx"), col("cy"),
        (col("wsum") / cfg.windowNorm).as("fc"),
        (col("wprev") / cfg.windowNorm).as("fp"),
      )
      .withColumn("score", GridBurstBatch.burstScore(cfg))
  }

  /** Top bursty cell per window (the continuous report stream). */
  def topPerWindow(scores: DataFrame): DataFrame = {
    import org.apache.spark.sql.expressions.Window
    val byScore = Window.partitionBy("ws").orderBy(col("score").desc, col("cx"), col("cy"))
    scores
      .withColumn("rank", row_number().over(byScore))
      .filter(col("rank") === 1)
      .drop("rank")
  }
}
