#!/usr/bin/env python3
"""Run one workload of the LMFAO benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark from source with sbt (once per source
state), then runs `perfbench.Main` in one local-mode Spark driver. Everything
the run writes goes under the build directory ($CARGO_TARGET_DIR, default
`.bench_build`, relative to the repository root). The last line of standard
output is the result JSON; Spark's log goes to `<build>/logs/`.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "3g"


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file whose change requires a rebuild."""
    roots = [ROOT / "build.sbt", ROOT / "project", ROOT / "src" / "main", ROOT / "jobs",
             BENCH / "build.sbt", BENCH / "project", BENCH / "src"]
    for r in roots:
        if r.is_file():
            yield r
        elif r.is_dir():
            for p in sorted(r.rglob("*")):
                if p.is_file() and "target" not in p.relative_to(r).parts:
                    yield p


def stamp():
    h = hashlib.sha256()
    for p in source_files():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_group(cmd, cwd, env, timeout, stdout, stderr):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr,
                            stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
                proc.wait(timeout=10)
                break
            except (ProcessLookupError, subprocess.TimeoutExpired):
                continue
        proc.wait()
        return None, None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build(out):
    """Compile with sbt and return the runtime classpath."""
    cp_file, stamp_file = out / "classpath.txt", out / "stamp"
    current = stamp()
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == current:
        return cp_file.read_text().strip()
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.exists():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    # sbt's own scratch files stay in the build directory too.
    env["SBT_OPTS"] += f" -Dsbt.global.base={out / 'sbt-global'} -Djava.io.tmpdir={out / 'tmp'}"
    log = out / "build.log"
    with open(log, "w") as err:
        code, stdout = run_group(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "export perfbench/Runtime/fullClasspath"],
            BENCH, env, BUILD_TIMEOUT_S, subprocess.PIPE, err)
    if stdout is not None:
        with open(log, "ab") as f:
            f.write(stdout)
    if code != 0:
        fail(f"build failed (exit {code}); see {log}")
    lines = [l for l in stdout.decode().splitlines() if l.strip() and not l.startswith("[")]
    if not lines:
        fail(f"build printed no classpath; see {log}")
    cp = lines[-1].strip()
    cp_file.write_text(cp)
    stamp_file.write_text(current)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload named in perfbench/README.md")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"the program's sources are missing under {ROOT}", 2)

    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = (out if out.is_absolute() else ROOT / out).resolve()
    for d in ("tmp", "logs", "spark-local", "traces"):
        (out / d).mkdir(parents=True, exist_ok=True)
    cp = build(out)

    env = dict(os.environ)
    # The program's own entry point chooses master and partitions by default.
    for k in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS"):
        env.pop(k, None)
    env["SPARK_LOCAL_DIRS"] = str(out / "spark-local")
    # C1 only: JIT warm-up then ends within the first model instead of
    # lowering each of the next several models' times.
    cmd = ["java", f"-Xmx{HEAP}", "-XX:TieredStopAtLevel=1", f"-Djava.io.tmpdir={out / 'tmp'}",
           f"-XX:ErrorFile={out / 'logs' / 'hs_err_%p.log'}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", str(out / "traces")]
    log = out / "logs" / f"{a.workload}-seed{a.seed}-trace{a.trace}.log"
    with open(log, "w") as err:
        code, stdout = run_group(cmd, out, env, RUN_TIMEOUT_S, subprocess.PIPE, err)
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s; see {log}")
    if code != 0:
        fail(f"run failed (exit {code}); see {log}")
    lines = stdout.decode().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail(f"run printed no result line; see {log}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
