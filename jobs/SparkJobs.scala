package repro.jobs

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.data.SpatialStreams
import repro.spark.{GridBurstBatch, SnapshotSurgeSpark, StreamingSurge}

/** Distributed exact snapshot SURGE: explode → per-cell sweep → argmax.
  * Usage: spark-submit --class repro.jobs.SnapshotSurgeJob repro.jar [n]
  */
object SnapshotSurgeJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("snapshot-surge").getOrCreate()
    val n    = args.headOption.map(_.toInt).getOrElse(50000)
    val spec = SpatialStreams.US
    val objs = SpatialStreams.generate(spec, n)
    val cfg  = spec.config()
    val now  = objs(objs.length * 3 / 4).t
    val df   = SpatialStreams.toDF(spark, objs)
    val p    = SnapshotSurgeSpark.burstyPoint(df, cfg, now)
    println(s"exact bursty point at t=$now: $p")
    println("GAPS cells (top 5):")
    GridBurstBatch.topKCells(df, cfg, now, 5).show(truncate = false)
    spark.stop()
  }
}

/** Continuous detection on Structured Streaming (hopping windows) over a
  * rate-source-driven synthetic stream.
  * Usage: spark-submit --class repro.jobs.StreamingSurgeJob repro.jar [seconds]
  */
object StreamingSurgeJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("streaming-surge").getOrCreate()
    val runSecs = args.headOption.map(_.toInt).getOrElse(15)
    val spec = SpatialStreams.Taxi
    val cfg  = spec.config().withWindowMillis(5000L)
    // Rate source → synthetic spatial objects: hash the sequence number into
    // a hotspot-skewed position inside the Taxi bounding box.
    val objs = spark.readStream
      .format("rate")
      .option("rowsPerSecond", "2000")
      .load()
      .select(
        col("timestamp").as("ts"),
        (lit(spec.lonMin) + pmod(col("value") * 2654435761L, lit(1000)) / 1000.0
          * (spec.lonMax - spec.lonMin)).as("x"),
        (lit(spec.latMin) + pmod(col("value") * 40503L, lit(1000)) / 1000.0
          * (spec.latMax - spec.latMin)).as("y"),
        (pmod(col("value"), lit(100)) + 1).cast("double").as("w"),
      )
    val q = StreamingSurge
      .cellWindowSums(objs, cfg)
      .writeStream
      .format("memory")
      .queryName("cell_sums")
      .outputMode("complete")
      .start()
    Thread.sleep(runSecs * 1000L)
    q.processAllAvailable()
    q.stop()
    val scores = StreamingSurge.burstScores(spark.table("cell_sums"), cfg)
    println("Top bursty cells per hopping window:")
    StreamingSurge.topPerWindow(scores).orderBy("ws").show(50, truncate = false)
    spark.stop()
  }
}
