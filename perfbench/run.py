#!/usr/bin/env python3
"""Build and run the EDA benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library sources (src/main/scala/repro/
{core,stats,data}) and the benchmark sources (perfbench/src) are compiled
together with the Scala compiler shipped in Spark's jar directory
($SPARK_HOME/jars, or that of the spark-submit on PATH) into .bench_build/perfbench/,
keyed by a hash of the sources, so an unchanged tree is compiled once.
The benchmark JVM then runs one workload; its last stdout line is the JSON
result, which this script prints as its own last line. Result and span files
go to .bench_build/perfbench/results/.
"""
import argparse
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LIB_DIRS = [os.path.join(ROOT, "src", "main", "scala", "repro", d) for d in ("core", "stats", "data")]
BENCH_DIR = os.path.join(HERE, "src")
RUN_TIMEOUT_S = 170
HEAP = "3g"

# Module opens Spark needs on JDK 17 (spark-submit adds the same set).
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    for d in LIB_DIRS + [BENCH_DIR]:
        if not os.path.isdir(d):
            fail(f"source directory {os.path.relpath(d, ROOT)} not found; run from a full checkout")
    files = []
    for d in LIB_DIRS + [BENCH_DIR]:
        files += glob.glob(os.path.join(d, "**", "*.scala"), recursive=True)
    return sorted(files)


def source_hash(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_jars():
    """$SPARK_HOME/jars, else the jars of the first Spark install whose
    bin/spark-submit is on PATH."""
    homes = [os.environ["SPARK_HOME"]] if os.environ.get("SPARK_HOME") else [
        os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        jars = os.path.join(home, "jars")
        if glob.glob(os.path.join(jars, "spark-sql_*.jar")):
            return jars
    fail("no Spark jars found; set SPARK_HOME")


def build(files, digest, jars):
    """Compile into BUILD/classes-<digest> unless that is already there."""
    classes = os.path.join(BUILD, f"classes-{digest[:16]}")
    if os.path.isfile(os.path.join(classes, ".complete")):
        return classes
    staging = classes + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", staging] + files
    print(f"perfbench: compiling {len(files)} sources", flush=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("compilation failed")
    open(os.path.join(staging, ".complete"), "w").close()
    for old in glob.glob(os.path.join(BUILD, "classes-*")):
        if old != staging:
            shutil.rmtree(old, ignore_errors=True)
    os.rename(staging, classes)
    return classes


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    files = sources()
    digest = source_hash(files)
    jars = spark_jars()
    classes = build(files, digest, jars)

    results = os.path.join(BUILD, "results")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(results, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", f"-Xmx{HEAP}"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
           + [f"-Djava.io.tmpdir={tmp}",
              f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
              f"-Dperfbench.out={results}", f"-Dperfbench.tmp={tmp}",
              f"-Dperfbench.git_sha={git_sha()}", f"-Dperfbench.source_sha256={digest}",
              "-cp", os.pathsep.join([classes, os.path.join(jars, "*")]),
              "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"benchmark JVM exited with code {proc.returncode} and no result")
    for line in lines:
        print(line)
    shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
