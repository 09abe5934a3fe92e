#!/usr/bin/env python3
"""geotopo benchmark: runs one workload for one seed and prints one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the worker crate next to this
file (release profile, into $CARGO_TARGET_DIR or .bench_build), runs every
phase in a fresh worker process with one worker thread, checks the
outputs, and prints the metrics named in BENCHMARK.json: the end-to-end
metrics with --trace 0, the per-layer metrics of a separate traced run
with --trace 1. Human-readable lines come first; the last stdout line is
the JSON result. See perfbench/README.md for what each workload and
metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
RESTART = "restart-serve-large"
WORKLOADS = ("cold-large", RESTART)
# Serving requests (4096-address batches) per second of --seconds: at the
# ~1.2 M lookups/s one worker sustains, the serving window lasts a little
# less than --seconds, while the work stays a fixed count.
BATCHES_PER_SECOND = 256
# Timed phases per run, each in a fresh process, spread over the run so
# that the host's drift is averaged: the timed metrics are medians over
# them and the serving window is split evenly between them.
TIMED_PHASES = {"cold-large": 2, RESTART: 4}
# Populate processes per restart-serve-large run: setup_s is their
# median, and the timed phases are split evenly between their stores.
POPULATES = 2
# The serving metrics are medians over windows of about this many
# consecutive batches of one timed phase (about a second of serving), so
# a stretch of the run in which the host was slow moves a few windows
# rather than the whole result.
WINDOW_BATCHES = 256
MIN_COVERAGE = 0.9


class BenchError(Exception):
    pass


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("building the benchmark worker failed")
    return target / "release" / "perfbench"


class Worker:
    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.base = ["--workload", workload, "--seed", str(seed)]
        self.env = dict(os.environ, GEOTOPO_THREADS="1")

    def __call__(self, command, **flags):
        argv = [str(self.binary), command] + self.base
        for flag, value in flags.items():
            argv += ["--" + flag.replace("_", "-"), str(value)]
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker `{command}` exited with code {proc.returncode}")
        return json.loads(lines[-1])


def check_ledger(key, digest, failures):
    """Runs of one seed must produce identical outputs: the first run of a
    (workload, seed) in this checkout records its digest, later runs must
    match it."""
    path = STATE / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    if key in ledger and ledger[key] != digest:
        failures.append(f"{key}: output digest {digest} differs from an earlier run's {ledger[key]}")
    ledger.setdefault(key, digest)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


def same_digests(label, runs, failures):
    for key in ("digest", "results_digest"):
        values = {r.get(key) for r in runs}
        if len(values) != 1:
            failures.append(f"{label}: {key} differs between processes: {sorted(map(str, values))}")


def windows(batch_ms):
    """Splits one timed phase's batch latencies, in request order, into
    near-equal windows of about WINDOW_BATCHES batches."""
    n = max(1, len(batch_ms) // WINDOW_BATCHES)
    bounds = [len(batch_ms) * i // n for i in range(n + 1)]
    return [batch_ms[a:b] for a, b in zip(bounds, bounds[1:])]


def timed_run(worker, workload, seed, batches, tmp):
    failures = []
    notes = []
    phases = TIMED_PHASES[workload]
    shares = [batches // phases + (i < batches % phases) for i in range(phases)]
    runs = []
    if workload == RESTART:
        # Each populate writes a fresh store; the timed phases after it
        # restart on that store, which is then removed.
        setups, digests = [], []
        per_store = phases // POPULATES
        for i in range(POPULATES):
            store = tmp / f"store{i}"
            pop = worker("populate", dir=store)
            failures += pop["failures"]
            setups.append(pop["populate_s"])
            digests.append(pop["digest"])
            for share in shares[i * per_store:(i + 1) * per_store]:
                runs.append(worker("timed", dir=store, batches=share))
                digests.append(runs[-1]["digest"])
            shutil.rmtree(store)
        if len(set(digests)) != 1:
            failures.append(f"restored digests differ from the populate digests: {digests}")
        notes.append(f"set-up: {POPULATES} populate processes, peak RSS of the last "
                     f"{pop['peak_rss_mib']:.1f} MiB; {per_store} timed phases restart on each store")
    else:
        setups = worker("probe")["setup_s"]
        notes.append(f"set-up: building the inputs {len(setups)} times in one worker")
        runs = [worker("timed", batches=share) for share in shares]
    for run in runs:
        failures += run["failures"]
        check_ledger(f"{workload}/{seed}", [run["digest"], run["results_digest"]], failures)

    batch_ms = [ms for run in runs for ms in run["batch_ms"]]
    lookups = sum(run["lookups"] for run in runs)
    per_batch = lookups / len(batch_ms)
    wins = [w for run in runs for w in windows(run["batch_ms"])]

    def median(key):
        return statistics.median(run[key] for run in runs)

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "peak_rss_mib": median("peak_rss_mib"),
        "lookups_per_s": statistics.median(per_batch * len(w) * 1e3 / sum(w) for w in wins),
        "batch_p50_ms": statistics.median(statistics.median(w) for w in wins),
        "batch_p90_ms": statistics.median(statistics.quantiles(w, n=10)[8] for w in wins),
    }
    notes.append("ready: " + ", ".join(f"{run['ready_s']:.4f} s" for run in runs)
                 + " from the start of a timed phase to a servable snapshot "
                 "(the Pipeline::run call)")
    notes.append(f"samples: setup_s median of {len(setups)}, wall_s/cpu_s/peak_rss_mib "
                 f"median of {len(runs)}; lookups_per_s/batch_p50_ms/batch_p90_ms median "
                 f"over {len(wins)} windows of {len(batch_ms) // len(wins)} batches of 4096 "
                 f"({min(len(w) for w in wins) // 10} or more beyond p90 in each)")
    notes.append(f"pooled over all {len(batch_ms)} batches: "
                 f"{lookups / sum(run['serve_busy_s'] for run in runs):.6g} lookups/s, "
                 f"p50 {statistics.median(batch_ms):.6g} ms, "
                 f"p90 {statistics.quantiles(batch_ms, n=10)[8]:.6g} ms")
    notes.append("host.ref_s before/after each timed phase: "
                 + ", ".join(" / ".join(f"{v:.4f}" for v in run["host_ref_s"]) for run in runs)
                 + " s")
    attempted = len(runs) + lookups
    failed = (1 if failures else 0) + sum(run["wrong"] for run in runs)
    return values, attempted, failed, failures, notes


def traced_run(worker, workload, seed, batches, tmp):
    failures = []
    notes = []
    metrics = {}
    traces = []
    processes = []
    if workload == RESTART:
        store = tmp / "store"
        pop = worker("populate", dir=store, trace_out=tmp / "populate.trace.json")
        traces.append(tmp / "populate.trace.json")
        failures += pop["failures"]
        metrics.update(pop["metrics"])
        processes.append(pop)
        untraced = worker("timed", dir=store, batches=batches)
        traced = worker("traced", dir=store, batches=batches, trace_out=tmp / "timed.trace.json")
    else:
        untraced = worker("timed", batches=batches)
        traced = worker("traced", batches=batches, trace_out=tmp / "timed.trace.json")
    traces.append(tmp / "timed.trace.json")
    processes += [untraced, traced]
    for r in (untraced, traced):
        failures += r["failures"]
    same_digests(workload, processes, failures)
    check_ledger(f"{workload}/{seed}", [traced["digest"], traced.get("results_digest")], failures)

    # Set-up-only layers keep the populate's numbers; layers the restart
    # exercises again are overwritten with the timed phase's.
    metrics.update(untraced["engine"])
    metrics.update(traced["metrics"])
    coverage = min(p["coverage"] for p in processes if "coverage" in p)
    if coverage < MIN_COVERAGE:
        failures.append(f"spans cover {coverage:.3f} of a traced phase (< {MIN_COVERAGE})")
    metrics["trace.coverage"] = coverage
    metrics["trace.overhead_ratio"] = traced["timed_s"] / untraced["wall_s"] - 1.0
    metrics["host.ref_s"] = statistics.median(untraced["host_ref_s"] + traced["host_ref_s"])

    events = []
    for path in traces:
        events += json.loads(path.read_text())
    trace_file = STATE / "traces" / f"{workload}-seed{seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"workload": workload, "seed": seed},
    }))
    notes.append(f"trace: {trace_file.relative_to(ROOT)} (Chrome trace events; open in "
                 "Perfetto or chrome://tracing)")
    notes.append(f"traced timed phase {traced['timed_s']:.3f} s vs untraced wall_s "
                 f"{untraced['wall_s']:.3f} s; spans cover {coverage:.4f}")
    attempted = 2 + untraced["lookups"] + traced["lookups"]
    failed = (1 if failures else 0) + untraced["wrong"] + traced["wrong"]
    return metrics, attempted, failed, failures, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        worker = Worker(build(), args.workload, args.seed)
        tmp = STATE / "tmp" / f"{args.workload}-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            run = traced_run if args.trace else timed_run
            values, attempted, failed, failures, notes = run(
                worker, args.workload, args.seed, args.seconds * BATCHES_PER_SECOND, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for m in wanted:
        print(f"{m['name']} = {values.get(m['name'], 0.0):.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} failed of {attempted} operations)")
    for line in notes:
        print(f"# {line}")
    for f in failures:
        print(f"FAILED: {f}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
