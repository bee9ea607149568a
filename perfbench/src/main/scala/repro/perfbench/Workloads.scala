package repro.perfbench

import repro.core.SurgeConfig

/** A benchmark workload: a US stream at some share of the paper's arrival
  * rate, replayed through one detector.
  *
  * Each timed repetition replays two windows of arrivals untimed (the fill:
  * ops are timed from the first `Expired` event on, the stable state of
  * §VII-A), then times `segmentWindows` windows. A run makes
  * `round(seconds / repSeconds)` repetitions (at least one), each over a
  * stream of its own.
  *
  * @param rateFraction   arrival rate as a share of Table I's US rate
  * @param segmentWindows windows of arrivals timed per repetition
  * @param repSeconds     timed seconds of one repetition on the reference
  *                       machine (4 vCPUs, OpenJDK 17), fixing the work a
  *                       given `--seconds` asks for
  * @param checksPerRep   oracle checks spread over each repetition
  * @param k              top-k size (0 for single-answer detectors)
  */
final case class Workload(name: String, rateFraction: Double, segmentWindows: Int, repSeconds: Double,
                          checksPerRep: Int, k: Int, subject: SurgeConfig => Subject)

object Workloads {
  val all: Seq[Workload] = Seq(
    // The exact path at the paper's density: most time is SL-CSPOT inside
    // `query`, concentrated in the few events that search.
    Workload("ccs-us", 0.25, 2, 1.25, 1, 0, new Subject.Ccs(_)),
    // Never sweeps: cost is the event substrate, hash-keyed cells and the
    // lazy heap, so a sweep change must leave it flat.
    Workload("mgaps-us", 1.0, 6, 2.1, 2, 0, new Subject.MGaps(_)),
    // The only user of `synthetic` insert/remove, chained layer queries and
    // `rectsCovering`; at the paper's rate it would not fit a run.
    Workload("kccs5-us", 0.1, 2, 1.65, 2, 5, new Subject.KCcs(_, 5)),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
