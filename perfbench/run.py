"""diagfock benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {cli-cold,formula-sums,operator-model}
                             --seed N --seconds S --trace {0,1} [--toy]

Run from anywhere inside a checkout that holds ``src/diagfock``; nothing is
built, the library is imported from ``src``.  One client runs one job at a
time (a closed loop; the machine this was tuned on has 2 cores).

--trace 0 times set-up three times (two set-up-only processes, then the
measuring one) and reports the median as ``setup_s``, then the end-to-end
metrics of the measuring process's timed phase.  --trace 1 runs the timed
phase untraced and then traced, and reports the per-layer metrics.  The
metric names and units come from BENCHMARK.json at the checkout root.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it holds the run's record (environment, digest of the exact
outputs, job count, the percentile ``job_tail_ms`` used, per-kind medians);
the same record, with the result, is written to perfbench/out/.  Any failed
check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10  # job_tail_ms: the highest percentile with this many jobs beyond it


class BenchError(Exception):
    pass


def spawn_worker(args, rounds, deadline, setup_only=False):
    """Run one worker process; return its JSON line, the seconds from spawn to
    its `ready`, and the speed factor that scales those seconds."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--rounds", str(rounds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.toy:
        cmd.append("--toy")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker did not finish within {TIME_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    data = json.loads(out.decode().strip().splitlines()[-1])
    return data, data["ready"] - spawned, data["setup_speed"]


def tail(walls):
    """(value, percentile): the job time with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(walls)
    keep = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[keep - 1], 100.0 * keep / len(ordered)


def per_kind_p50_ms(jobs):
    by_kind = {}
    for kind, wall, _ in jobs:
        by_kind.setdefault(kind, []).append(wall)
    return {kind: 1000 * statistics.median(walls) for kind, walls in by_kind.items()}


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sha = None  # null when the checkout is not a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def end_to_end(data, setup_samples):
    jobs = data["jobs"]
    walls = [wall for _, wall, _ in jobs]
    passed = sum(1 for _, _, ok in jobs if ok)
    tail_s, pct = tail(walls)
    values = {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": passed / sum(walls),
        "job_p50_ms": 1000 * statistics.median(walls),
        "job_tail_ms": 1000 * tail_s,
        "peak_rss_mb": data["peak_rss_mb"],
        "pass_ratio": passed / len(jobs),
    }
    return values, {"job_tail_percentile": pct}


def per_layer(data, spec_names):
    from tracer import layer_metrics

    trace = data["trace"]
    values = layer_metrics(trace["stats"], trace["caches"])
    untraced, traced = data["jobs"], trace["jobs"]
    rate = lambda jobs: sum(1 for j in jobs if j[2]) / sum(j[1] for j in jobs)  # noqa: E731
    for name in values:
        if name.endswith("_s"):  # seconds measured in the traced pass: scale to reference speed
            values[name] *= trace["speed"]
    values["trace.overhead_ratio"] = rate(traced) / rate(untraced)
    values["cli.import_s"] = trace["import_s"]
    values["cli.import_scipy_s"] = trace["import_scipy_s"]
    values["cli.child_rss_mb"] = statistics.median(data["child_rss_mb"]) if "child_rss_mb" in data else 0.0
    kinds = per_kind_p50_ms(untraced)
    by_sub = {}
    for (kind, wall, _), sub in zip(untraced, data.get("subcommands", [])):
        by_sub.setdefault(sub, []).append(wall)
    for name in spec_names:
        parts = name.split(".")
        if parts[0] == "kind" and name not in values:
            values[name] = kinds.get(parts[1], 0.0)
        elif parts[0] == "cli" and parts[-1] == "p50_ms":
            walls = by_sub.get(parts[1])
            values[name] = 1000 * statistics.median(walls) if walls else 0.0
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="tiny job sizes (the benchmark's self-test)")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "diagfock" / "__init__.py").is_file():
        print(f"error: no src/diagfock under {ROOT}; run from a diagfock checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rounds = max(1, round(args.seconds / workloads.NOMINAL_ROUND_S[args.workload]))

    try:
        setup_raw, setup_samples = [], []
        for setup_only in [True] * (0 if args.trace else SETUP_SAMPLES - 1) + [False]:
            data, setup, speed = spawn_worker(args, rounds, deadline, setup_only)
            setup_raw.append(setup)
            setup_samples.append(setup * speed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    jobs = data["jobs"]
    failed = sum(1 for _, _, ok in jobs if not ok)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "toy": args.toy,
        "rounds": rounds,
        "jobs_per_run": len(jobs),
        "setup_samples_s": setup_samples,
        "setup_raw_s": setup_raw,
        "speed": data["speed"],
        "raw_job_s": data["raw_job_s"],
        "warm_failed": data["warm_failed"],
        "failures": data["failures"],
        "digest": data["digest"],
        "kind_p50_ms": per_kind_p50_ms(jobs),
        "env": environment(),
    }
    if args.trace:
        trace = data["trace"]
        failed += sum(1 for _, _, ok in trace["jobs"] + trace["cold_jobs"] if not ok)
        values = per_layer(data, [m["name"] for m in spec["per_layer"]])
        declared = spec["per_layer"]
        record.update(
            traced_digest=trace["digest"],
            traced_failures=trace["failures"],
            self_exceeds_wall=trace["self_exceeds_wall"],
            spans_file=trace["spans_file"],
            spans=trace["spans"],
            cold_jobs=len(trace["cold_jobs"]),
        )
        attempted = 2 * len(jobs) + len(trace["cold_jobs"])
        consistent = trace["digest"] == data["digest"] and not trace["self_exceeds_wall"]
    else:
        values, extra = end_to_end(data, setup_samples)
        record.update(extra)
        declared = spec["end_to_end"]
        attempted = len(jobs)
        consistent = True
    correct = failed == 0 and not data["warm_failed"] and consistent
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}.json"
    (OUT / name).write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
