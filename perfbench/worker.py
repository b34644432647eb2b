"""One workload process: set-up, then the timed jobs, one at a time.

    python perfbench/worker.py --workload NAME --seed N --rounds R
                               [--trace 0|1] [--setup-only] [--toy]

Set-up is imports, input generation and one untimed warm-up job per kind;
the process records the monotonic clock when it ends (``ready``), so the
parent can time set-up from before the process started.  The timed phase
runs the round list once untraced; with --trace 1 it then runs the same list
again under the tracer.  Each job's check runs after its timer stops.  The
process prints one JSON line and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
IMPORT_SAMPLES = 3  # `-X importtime` runs per traced run; the split is their median

import workloads  # noqa: E402


def digest(results) -> str:
    h = hashlib.sha256()
    for kind, _, _, text in results:
        h.update(f"{kind}\t{text}\n".encode())
    return h.hexdigest()


def checked(job, out) -> tuple:
    """(passed, canonical text); the check and the canonical form are untimed."""
    try:
        return bool(job.check(out)), job.canon(out)
    except Exception as exc:  # a check that cannot run counts as a failed job
        return False, f"check raised {type(exc).__name__}: {exc}"


# -- running one job -----------------------------------------------------------------


def run_inprocess(job, tracer=None, job_id=0):
    """(seconds, output, error text or None, summed layer self seconds).

    A full garbage collection runs first, untimed, so that a collection
    owed to earlier jobs does not land inside this one."""
    gc.collect()
    start = perf_counter()
    try:
        if tracer is None:
            out = job.run()
            return perf_counter() - start, out, None, 0.0
        out, wall, layer_self = tracer.run_job(job_id, job.run)
        return wall, out, None, layer_self
    except Exception as exc:  # a job that raises counts as failed
        return perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}", 0.0


class CliRunner:
    """Runs each CLI job as a fresh `python -m diagfock.cli` process."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stderr_path = workdir / "stderr.txt"
        self.trace_path = workdir / "trace.json"

    def prepare(self, jobs, tag):
        """Write each job's JSON input; return the argument vectors."""
        argvs = []
        for i, job in enumerate(jobs):
            path = self.workdir / f"{tag}-{i}.json"
            if job.inputs:
                path.write_text(json.dumps(job.inputs))
            argvs.append([str(path) if a == "{in}" else a for a in job.argv])
        return argvs

    @staticmethod
    def warm(argv) -> bool:
        """Run one job in this process (compiles and caches what a CLI start reads)."""
        import diagfock.cli

        with contextlib.redirect_stdout(io.StringIO()):
            return diagfock.cli.main(argv) == 0

    def run(self, argv, traced=False, job_id=0):
        """(seconds, stdout, error text or None, child peak RSS in KiB, trace or None)."""
        if traced:
            cmd = [sys.executable, str(HERE / "cli_job.py"), str(self.trace_path), str(job_id)] + argv
        else:
            cmd = [sys.executable, "-m", "diagfock.cli"] + argv
        with open(self.stderr_path, "w") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        trace = None
        if traced and self.trace_path.exists():
            trace = json.loads(self.trace_path.read_text())
            self.trace_path.unlink()
        error = f"exit {code}: {self.stderr_path.read_text()[-500:]}" if code else None
        return wall, out.decode(), error, usage.ru_maxrss, trace


def import_split():
    """Median seconds of `import diagfock.cli`, and of the scipy imports inside
    it (the cumulative time of each scipy module not imported by another one),
    from `python -X importtime`, each run scaled by a process calibration."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    totals, scipys = [], []
    for _ in range(IMPORT_SAMPLES):
        factor = workloads.CAL_PROCESS_REF_S / workloads.calibrate_process()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import diagfock.cli"],
            capture_output=True, text=True, env=env, cwd=ROOT, check=True,
        )
        rows = []
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "self [us]" not in line:
                _, cumulative_us, name = line[len("import time:"):].split("|")
                depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
                rows.append((depth, name.strip(), int(cumulative_us)))
        total = scipy = 0
        ancestors = []  # importtime prints a module after its imports: walk back
        for depth, name, cumulative_us in reversed(rows):
            del ancestors[depth:]
            if depth == 0:
                total += cumulative_us
            if name.startswith("scipy") and not any(a.startswith("scipy") for a in ancestors):
                scipy += cumulative_us
            ancestors.append(name)
        totals.append(total / 1e6 * factor)
        scipys.append(scipy / 1e6 * factor)
    return statistics.median(totals), statistics.median(scipys)


# -- main ----------------------------------------------------------------------------


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()

    cli = args.workload == "cli-cold"
    if not cli:
        sys.path.insert(0, str(SRC))
        import diagfock  # noqa: F401  (import time belongs to set-up)

    warm, timed = workloads.build(args.workload, args.seed, args.rounds, args.toy)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        result = run_workload(args, cli, warm, timed, workdir)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    print(json.dumps(result))


def calibrate_collected() -> float:
    """The stdlib calibration loop, timed on a freshly collected heap, so that
    garbage or pending collections a job left behind cannot slow it."""
    gc.collect()
    return workloads.calibrate()


class Clock:
    """Scales measured seconds to the reference speed (see workloads.CAL_REF_S)
    with a calibration timed before and after each measurement: the stdlib
    loop, or for CLI processes a process start."""

    def __init__(self, process=False):
        if process:
            self.calibrate, self.ref = workloads.calibrate_process, workloads.CAL_PROCESS_REF_S
        else:
            self.calibrate, self.ref = calibrate_collected, workloads.CAL_REF_S
        self.last = self.calibrate()
        self.samples = [self.last]

    def sample(self):
        cal = self.calibrate()
        self.samples.append(cal)
        return cal

    def scaled(self, seconds):
        """seconds, measured since the previous calibration, at the reference speed."""
        cal = self.sample()
        factor = self.ref / ((self.last + cal) / 2)
        self.last = cal
        return seconds * factor

    def factor(self):
        return self.ref / statistics.median(self.samples)


def run_workload(args, cli, warm, timed, workdir):
    clock = Clock()
    runner = CliRunner(workdir) if cli else None
    warm_ok = []
    if cli:
        sys.path.insert(0, str(SRC))
        for argv in runner.prepare(warm, "warm"):
            warm_ok.append(runner.warm(argv))
            clock.sample()
        timed_argv = runner.prepare(timed, "timed")
    else:
        for job in warm:
            warm_ok.append(run_inprocess(job)[2] is None)
            clock.sample()
    ready = time.monotonic()
    result = {
        "ready": ready,
        "setup_speed": clock.factor(),
        "warm_failed": [job.kind for job, ok in zip(warm, warm_ok) if not ok],
    }
    if args.setup_only:
        return result

    rows, raw, rss = [], [], []
    clock = Clock(process=cli)
    for job_id, job in enumerate(timed):
        if cli:
            wall, out, error, child_rss, _ = runner.run(timed_argv[job_id])
            rss.append(child_rss)
        else:
            wall, out, error, _ = run_inprocess(job)
        raw.append(wall)
        scaled = clock.scaled(wall)
        ok, text = (False, error) if error else checked(job, out)
        rows.append((job.kind, scaled, ok, text))
    result["jobs"] = [[kind, wall, ok] for kind, wall, ok, _ in rows]
    result["raw_job_s"] = raw
    result["speed"] = clock.factor()
    result["failures"] = [[kind, text] for kind, _, ok, text in rows if not ok][:5]
    result["digest"] = digest(rows)
    if cli:
        result["peak_rss_mb"] = max(rss) / 1024
        result["child_rss_mb"] = [r / 1024 for r in rss]
        result["subcommands"] = [job.argv[0] for job in timed]
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        result["trace"] = run_traced(args, cli, warm, timed, runner, timed_argv if cli else None)
    return result


def run_traced(args, cli, warm, timed, runner, timed_argv):
    """One more pass under the tracer: stats, spans and the per-job sum check.

    In-process workloads then trace a cold pass: the partition caches are
    emptied and the warm-up jobs run again, so the enumeration that fills the
    caches at set-up is seen.  That pass adds to the ``partitions`` totals
    only; the other layers' totals are the timed jobs'."""
    from tracer import Tracer, merge_stats

    stats, spans, caches, rows, cold_rows, over = {}, [], {}, [], [], []
    clock = Clock(process=cli)
    tracer = None
    if not cli:
        tracer = Tracer()
        tracer.install()

    def traced(job, job_id, argv=None):
        if cli:
            wall, out, error, _, trace = runner.run(argv, traced=True, job_id=job_id)
            if trace is None:
                layer_self = float("inf")  # no trace written: the job cannot pass the sum check
            else:
                layer_self = trace["layer_self"]
                merge_stats(stats, trace["stats"])
                spans.extend(trace["spans"])
                for name, val in trace["caches"].items():
                    caches[name] = caches.get(name, 0) + val
        else:
            wall, out, error, layer_self = run_inprocess(job, tracer, job_id)
        scaled = clock.scaled(wall)
        ok, text = (False, error) if error else checked(job, out)
        if layer_self > wall:
            over.append([job.kind, layer_self, wall])
        return job.kind, scaled, ok, text

    for job_id, job in enumerate(timed):
        rows.append(traced(job, job_id, timed_argv[job_id] if cli else None))
    if not cli:
        merge_stats(stats, tracer.stats)
        caches = tracer.cache_counters()
        tracer.stats = {}
        for cache in tracer.partition_caches():
            cache.cache_clear()  # also zeroes its counters: those so far are in `caches`
        for i, job in enumerate(warm):
            cold_rows.append(traced(job, len(timed) + i))
        merge_stats(stats, {name: st for name, st in tracer.stats.items() if name.startswith("partitions.")})
        for name, val in tracer.cache_counters().items():
            caches[name] += val
        spans = tracer.spans
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    total, scipy = import_split()
    return {
        "speed": clock.factor(),
        "jobs": [[kind, wall, ok] for kind, wall, ok, _ in rows],
        "cold_jobs": [[kind, wall, ok] for kind, wall, ok, _ in cold_rows],
        "failures": [[kind, text] for kind, _, ok, text in rows + cold_rows if not ok][:5],
        "digest": digest(rows),
        "stats": stats,
        "caches": caches,
        "self_exceeds_wall": over,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(spans),
        "import_s": total,
        "import_scipy_s": scipy,
    }


if __name__ == "__main__":
    main()
