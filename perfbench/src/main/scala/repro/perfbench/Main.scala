package repro.perfbench

import java.io.File

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * [--out <dir>]`.
  *
  * `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
  * per-layer split and writes the span log under `--out`. Every metric is
  * printed on its own line with its unit; the last line of standard output
  * is one JSON object with `correct`, `attempted`, `failed` and `metrics`,
  * where `attempted`/`failed` count oracle and replay checks.
  */
object Main {

  private def usage(msg: String): Nothing = {
    Console.err.println(s"error: $msg")
    Console.err.println("usage: --workload <" + Workloads.all.map(_.name).mkString("|") +
      "> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]")
    sys.exit(2)
  }

  def main(argv: Array[String]): Unit = {
    if (argv.length % 2 != 0) usage("arguments come in --name value pairs")
    val args = argv.grouped(2).map { case Array(k, v) => k -> v }.toMap
    val known = Set("--workload", "--seed", "--seconds", "--trace", "--out")
    args.keys.find(!known(_)).foreach(k => usage(s"unknown option $k"))
    def need(k: String) = args.getOrElse(k, usage(s"missing $k"))
    val wl = Workloads.byName(need("--workload")).getOrElse(usage(s"unknown workload ${args("--workload")}"))
    val seed = need("--seed").toLongOption.getOrElse(usage("--seed must be an integer"))
    val seconds = need("--seconds").toIntOption.filter(_ > 0).getOrElse(usage("--seconds must be a positive integer"))
    val trace = need("--trace") match {
      case "0" => false
      case "1" => true
      case _   => usage("--trace must be 0 or 1")
    }
    val out = new File(args.getOrElse("--out", "perfbench/out"))

    val bench = new Bench(wl, seed, seconds, out)
    if (trace) bench.runTraced(math.min(4, Runtime.getRuntime.availableProcessors))
    else bench.runUntraced()

    println("provenance " + bench.provenance.map { case (k, v) => s"${quote(k)}: ${jsonValue(v)}" }
      .mkString("{", ", ", "}"))
    bench.metrics.foreach(m => println(f"metric ${m.name}%-28s ${m.value}%s ${m.unit}"))
    val rate = if (bench.attempted == 0) 0.0 else bench.failed.toDouble / bench.attempted
    println(s"error_rate $rate ratio (${bench.failed} of ${bench.attempted} checks failed)")
    val metrics = bench.metrics.map { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is ${m.value}")
      s"${quote(m.name)}: {\"value\": ${m.value}, \"unit\": ${quote(m.unit)}}"
    }.mkString("{", ", ", "}")
    println(s"""{"correct": ${bench.failed == 0 && bench.attempted > 0}, "attempted": ${bench.attempted}, """ +
      s""""failed": ${bench.failed}, "metrics": $metrics}""")
    System.out.flush()
    sys.exit(0)
  }

  private def quote(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  private def jsonValue(v: Any): String = v match {
    case i: Int    => i.toString
    case l: Long   => l.toString
    case d: Double => d.toString
    case s: String if s.startsWith("[") => s
    case other     => quote(other.toString)
  }
}
