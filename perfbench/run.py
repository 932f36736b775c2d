#!/usr/bin/env python3
"""Runs the DPC benchmark on one workload.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. On first use (and whenever a source or
build file changed) it builds the program and the benchmark from source with
sbt, into the checkout; it then runs the workload in a fresh JVM and relays its
output. The last line of standard output is the JSON summary
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CLASSPATH_FILE = os.path.join(BUILD_DIR, "classpath.txt")
DIGEST_FILE = os.path.join(BUILD_DIR, "sources.sha256")
TMP_DIR = os.path.join(BUILD_DIR, "tmp")

# What the build reads, relative to the root: the program's sources and build
# definition, and the benchmark's.
SOURCES = ["build.sbt", "project", "src/main", "jobs",
           "perfbench/build.sbt", "perfbench/project", "perfbench/src"]
REQUIRED = ["build.sbt", "src/main/scala"]

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
# A fixed, pre-touched heap and the throughput collector keep GC and page
# faults out of the timings; the live set is a few hundred MB.
JVM_OPTS = ["-Xms1g", "-Xmx1g", "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC", "-XX:MetaspaceSize=256m",
            "-XX:-UsePerfData", f"-Djava.io.tmpdir={TMP_DIR}"]

_child = None


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _stop_child(*_):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(1)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    global _child
    _child = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s", 1)
    return _child.returncode, out


def source_digest():
    h = hashlib.sha256()
    for rel in SOURCES:
        top = os.path.join(ROOT, rel)
        paths = [top] if os.path.isfile(top) else []
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))  # build output
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build(digest):
    """Builds with sbt unless the sources are unchanged; returns the classpath."""
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(DIGEST_FILE):
        with open(DIGEST_FILE) as fh:
            if fh.read().strip() == digest:
                with open(CLASSPATH_FILE) as cf:
                    return cf.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "").split()
    if not opts:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts + [f"-Djava.io.tmpdir={TMP_DIR}", "-XX:-UsePerfData"])
    os.makedirs(TMP_DIR, exist_ok=True)
    code, out = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                          BUILD_TIMEOUT_S, cwd=BENCH_DIR, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines or "perfbench" not in lines[-1]:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail("build failed", 1)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(lines[-1])
    with open(DIGEST_FILE, "w") as fh:
        fh.write(digest)
    return lines[-1]


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for rel in REQUIRED:
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} not found: run from the root of a checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    digest = source_digest()
    classpath = build(digest)

    os.makedirs(TMP_DIR, exist_ok=True)  # also Spark's local dir
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, *JVM_OPTS, "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha(), "--source-sha256", digest]
    code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"benchmark exited with code {code}", 1)
    try:
        got = sorted(json.loads(lines[-1])["metrics"])
    except (ValueError, KeyError, TypeError):
        sys.stderr.write(out)
        fail("the benchmark's last line is not its JSON summary", 1)
    if got != sorted(expected):
        sys.stderr.write(out)
        fail(f"metrics {got} do not match BENCHMARK.json's {sorted(expected)}", 1)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
