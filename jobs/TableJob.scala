package repro.jobs

import repro.exp.Tables

/** spark-submit entrypoint for the evaluation tables. The event-driven
  * structures are driver-side (the paper's algorithms are sequential);
  * Spark-side reproductions live in SnapshotSurgeJob / StreamingSurgeJob.
  * Usage: spark-submit --class repro.jobs.TableJob repro.jar <I|II|III|IV> [n]
  * (`n` defaults to `SURGE_BENCH_N`, else 100000 for Table I and 20000 for
  * the others).
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    def n(default: Int): Int = args.lift(1).map(_.toInt).getOrElse(Tables.envN(default))
    println(args.headOption match {
      case Some("I")   => val m = n(100000); Tables.showTableI(m, Tables.tableI(m))
      case Some("II")  => val m = n(20000); Tables.showTableII(m, Tables.tableII(m))
      case Some("III") =>
        val (m, s) = (n(20000), Tables.envSample(200))
        Tables.showTableIII(m, s, Tables.tableIII(m, s))
      case Some("IV")  =>
        val (m, s) = (n(20000), Tables.envSample(200))
        Tables.showTableIV(m, s, Tables.tableIV(m, s))
      case _ => sys.error("usage: TableJob <I|II|III|IV> [n]")
    })
  }
}
