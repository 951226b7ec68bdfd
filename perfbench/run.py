#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics as one JSON line.

    python3 perfbench/run.py --workload figures-small --seed 2008 --seconds 40 --trace 0

Run from the repository root. The script builds `perfbench` (the Rust
crate beside it) in release mode, then:

* `--trace 0`: spawns the workload process `perfbench once` repeatedly
  for `--seconds` seconds (at least `MIN_RUNS` times), each process
  making one untraced entry call, and before each of them
  `SETUP_ONLY_PER_RUN` processes that stop right before the entry call.
  It reports the median of every end-to-end metric over those processes.
* `--trace 1`: spawns one `perfbench trace` process (untraced entry call,
  traced layer-by-layer replay, and the program's own timing trace) and
  reports every per-layer metric.

Every run checks the simulated output: each entry call's digest must
match the digest committed in `digests.json` for that seed, or, for a
seed with no committed digest, agree across the run's processes and,
when traced, with the replay and the program's traced run. A mismatch
fails every chip of the call. The last stdout line is
`{"correct", "attempted", "failed", "metrics"}`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figures-small", "exhdyn-sweep", "tournament-holdout")
MIN_RUNS = 3
SETUP_ONLY_PER_RUN = 5
PROCESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path or exits non-zero."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return os.path.join(ROOT, target, "release", "perfbench")


def spawn(binary, mode, workload, seed, *extra):
    """Runs one workload process; returns its JSON report or None."""
    spawned_ns = time.time_ns()
    try:
        proc = subprocess.run([binary, mode, workload, "--seed", str(seed), *extra],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {mode} {workload} timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {mode} {workload} exited with {proc.returncode}")
        return None
    report = json.loads(lines[-1])
    report["setup_s"] = (report["entry_unix_ns"] - spawned_ns) * 1e-9 \
        if "entry_unix_ns" in report else None
    return report


def expected_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def untraced(binary, workload, seed, seconds, expected):
    setups, runs, attempted, failed = [], [], 0, 0
    start = time.monotonic()
    while True:
        # Set-up samples are spread over the run, not taken in one burst.
        for _ in range(SETUP_ONLY_PER_RUN):
            report = spawn(binary, "setup", workload, seed)
            if report is None:
                sys.exit(2)
            setups.append(report["setup_s"])
        report = spawn(binary, "once", workload, seed)
        if report is None:
            sys.exit(2)
        runs.append(report)
        setups.append(report["setup_s"])
        attempted += report["chips"]
        failed += report["failed"]
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break

    digests = {r["digest"] for r in runs}
    if expected is None:
        # No committed digest for this seed: the processes must agree.
        bad = runs if len(digests) > 1 else []
    else:
        bad = [r for r in runs if r["digest"] != expected]
    if bad:
        log(f"perfbench: digest mismatch: {sorted(digests)}, committed {expected}")
        failed += sum(r["chips"] - r["failed"] for r in bad)
    log(f"# {workload} seed {seed}: {len(runs)} runs, digest {sorted(digests)}"
        f" ({'committed' if expected else 'no committed digest'})")

    med = lambda key: statistics.median(r[key] for r in runs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (med("run_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }
    return attempted, failed, metrics


def traced(binary, workload, seed, expected):
    report = spawn(binary, "trace", workload, seed, "--out", os.path.join(ROOT, ".bench_out"))
    if report is None:
        sys.exit(2)
    digests = {report["digest"], report["replay_digest"], report["traced_digest"]}
    agree = len(digests) == 1 and (expected is None or report["digest"] == expected)
    same_work = report["decisions"] == report["program_decisions"]
    if not agree:
        log(f"perfbench: digests disagree: untraced {report['digest']}, replay "
            f"{report['replay_digest']}, traced {report['traced_digest']}, expected {expected}")
    if not same_work:
        log(f"perfbench: replay made {report['decisions']} decisions, "
            f"the program {report['program_decisions']}")
    attempted = report["chips"]
    failed = attempted if not (agree and same_work) \
        else max(report["failed"], report["replay_failed"])
    metrics = {k: (v["value"], v["unit"]) for k, v in report["metrics"].items()}
    log(f"# spans written to {report['spans']}")
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    expected = expected_digest(args.workload, args.seed)
    if args.trace:
        attempted, failed, metrics = traced(binary, args.workload, args.seed, expected)
    else:
        attempted, failed, metrics = untraced(binary, args.workload, args.seed,
                                              args.seconds, expected)

    declared = declared_metrics(args.trace)
    if sorted(declared) != sorted(metrics):
        log(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} are not both"
            " declared in BENCHMARK.json and reported")
        sys.exit(3)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }))


if __name__ == "__main__":
    main()
