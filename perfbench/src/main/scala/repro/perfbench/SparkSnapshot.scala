package repro.perfbench

import java.io.File
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{BurstyPoint, SpatialObj, SurgeConfig}
import repro.data.SpatialStreams
import repro.spark.SnapshotSurgeSpark

/** A local Spark session for the snapshot layer, with its scratch space
  * kept under the benchmark's output directory.
  */
final class SparkSnapshot private (spark: SparkSession, val startS: Double) {
  def master: String = spark.sparkContext.master

  /** The stream as a cached DataFrame. */
  def frame(objs: Seq[SpatialObj]): DataFrame = {
    val df = SpatialStreams.toDF(spark, objs).cache()
    df.count()
    df
  }

  def solve(df: DataFrame, cfg: SurgeConfig, now: Long): Option[BurstyPoint] =
    SnapshotSurgeSpark.burstyPoint(df, cfg, now)

  def stop(): Unit = spark.stop()
}

object SparkSnapshot {
  def start(cores: Int, outDir: File): SparkSnapshot = {
    val t0 = System.nanoTime()
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("surge-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.local.dir", new File(outDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(outDir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    new SparkSnapshot(spark, (System.nanoTime() - t0) / 1e9)
  }
}
