#!/usr/bin/env python3
"""Build the program and its benchmark from source, then run one benchmark run.

    python3 perfbench/run.py --workload <s2t|qut|qut_insert> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run compiles the program and the
benchmark with sbt (offline) into `target/` and `.bench_build/`; later runs
reuse that build while the sources are unchanged. The run itself is one JVM
(`repro.perfbench.Main`) on Spark `local[k]`, k = min(4, cores). Its last
stdout line is the result JSON; everything it writes stays under
`.bench_build/perfbench/`. See perfbench/README.md for workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("s2t", "qut", "qut_insert")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
HEAP = "-Xmx2g"
# Module openings Spark needs on Java 17 (as its own launcher passes them).
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent",
              "java.util.concurrent.atomic", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
]
# What the build reads: the program's build and sources, and the benchmark's.
BUILD_INPUTS = ("build.sbt", "project/build.properties", "src/main", "jobs",
                "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src/main")


def fail(msg, code=2):
    print(f"[perfbench] error: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp(root):
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        path = os.path.join(root, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(root, work):
    """Compile with sbt unless the sources are unchanged; return the classpath."""
    stamp = source_stamp(root)
    stamp_file = os.path.join(work, "build.stamp")
    cp_file = os.path.join(work, "classpath.txt")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as fh:
                    return fh.read().strip()
    env = dict(os.environ, COURSIER_MODE="offline")
    if "SBT_OPTS" not in env:
        repos = os.path.expanduser("~/.sbt/repositories")
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        if os.path.exists(repos):
            opts = ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"] + opts
        env["SBT_OPTS"] = " ".join(opts)
    # sbt's global state (server socket, plugin cache) goes to the build directory.
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.global.base=" + os.path.join(work, "sbt-global"),
           "compile", "export Runtime/fullClasspath"]
    print("[perfbench] building with sbt", file=sys.stderr)
    try:
        code, out = run_group(cmd, BUILD_TIMEOUT_S, cwd=os.path.join(root, "perfbench"), env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        fail("sbt build timed out")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if code != 0 or not lines or ".jar" not in lines[-1]:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail(f"sbt build failed (exit {code})")
    classpath = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(classpath)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classpath


def main():
    start = time.monotonic()
    # A SIGTERM unwinds through run_group, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    for rel in ("build.sbt", "src/main/scala", "perfbench/build.sbt"):
        if not os.path.exists(os.path.join(root, rel)):
            fail(f"'{rel}' not found: run from the root of a checkout of the program")
    if shutil.which("sbt") is None or shutil.which("java") is None:
        fail("sbt and java must be on PATH")

    work = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(work, "tmp")
    results = os.path.join(work, "results")
    for d in (tmp, results):
        os.makedirs(d, exist_ok=True)
    built_before = time.monotonic()
    classpath = build(root, work)
    build_s = time.monotonic() - built_before

    cores = min(4, len(os.sched_getaffinity(0)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPARK_")}
    env["SPARK_MASTER"] = f"local[{cores}]"
    cmd = (["java", HEAP, "-XX:+UseG1GC"] + JAVA_OPENS + [
        "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
        f"-Dspark.local.dir={tmp}", f"-Djava.io.tmpdir={tmp}",
        f"-Dspark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}",
        "-cp", classpath, "repro.perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", args.trace, "--out", results])
    budget = RUN_TIMEOUT_S - (time.monotonic() - start - build_s)
    try:
        code, out = run_group(cmd, budget, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        for d in os.listdir(results):
            if d.startswith("work-"):
                shutil.rmtree(os.path.join(results, d), ignore_errors=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark exited with {code}", code or 4)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(out)
        fail("benchmark printed no result line", 4)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
