#!/usr/bin/env python3
"""SURGE benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ccs-us --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark from source with sbt (only when a
source file changed since the last build), then runs the benchmark JVM.
Everything is written inside the checkout: sbt's `target/` directories and
`perfbench/out/` (span logs, JVM and Spark scratch space).
"""
import hashlib
import os
import subprocess
import sys

BENCH_DIR = "perfbench"
OUT_DIR = os.path.join(BENCH_DIR, "out")
CLASSPATH_FILE = os.path.join(BENCH_DIR, "target", "bench-classpath.txt")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC"]

# Inputs of the build: the program's sources and build, and the benchmark's.
SOURCE_ROOTS = ["src/main", "jobs", "project", os.path.join(BENCH_DIR, "src/main"),
                os.path.join(BENCH_DIR, "project")]
SOURCE_FILES = ["build.sbt", os.path.join(BENCH_DIR, "build.sbt")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_stamp():
    h = hashlib.sha256()
    paths = list(SOURCE_FILES)
    for root in SOURCE_ROOTS:
        for d, dirs, files in os.walk(root):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(p.encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def sbt_env(tmp):
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    env["SBT_OPTS"] += f" -Djava.io.tmpdir={tmp}"
    return env


def build():
    """Returns the benchmark's runtime classpath, building if needed."""
    stamp = source_stamp()
    if os.path.exists(CLASSPATH_FILE):
        with open(CLASSPATH_FILE) as f:
            old_stamp, cp = f.read().split("\n", 1)
        if old_stamp == stamp:
            return cp.strip()
    tmp = os.path.abspath(os.path.join(OUT_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        res = subprocess.run(cmd, cwd=BENCH_DIR, env=sbt_env(tmp), stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        fail("build failed")
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    cp = lines[-1].strip() if lines else ""
    if not cp or cp.startswith("["):
        sys.stderr.write(res.stdout)
        fail("build printed no classpath")
    os.makedirs(os.path.dirname(CLASSPATH_FILE), exist_ok=True)
    with open(CLASSPATH_FILE, "w") as f:
        f.write(stamp + "\n" + cp + "\n")
    return cp


def main():
    if not (os.path.isdir("src/main/scala") and os.path.isfile("build.sbt")):
        fail("run from the root of a SURGE checkout (src/main/scala and build.sbt not found)")
    cp = build()
    tmp = os.path.abspath(os.path.join(OUT_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", *JVM_FLAGS, f"-Djava.io.tmpdir={tmp}", "-cp", cp,
           "repro.perfbench.Main", *sys.argv[1:], "--out", OUT_DIR]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.abspath(os.path.join(OUT_DIR, "spark-local")))
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
