"""Self-test of the benchmark: every workload at toy sizes, untraced and traced.

    python3 perfbench/selftest.py

For each workload it checks that every metric named in BENCHMARK.json is
printed with its unit, that no job failed (pass_ratio 1, i.e. a fail ratio
of 0), that the traced run's per-job sum check held, and that traced and
untraced runs produce the same output digest.  It also checks that the
benchmark refuses to run without a ``src/diagfock`` next to it.  Exits 0
when all hold.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--toy"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(problems)
        digests = {}
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines, err = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or len(lines) < 2:
                problems.append(f"{where}: exit {code}: {err[-300:]}")
                continue
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed: {record['failures']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            if trace == 0 and result["metrics"]["pass_ratio"]["value"] != 1:
                problems.append(f"{where}: pass_ratio {result['metrics']['pass_ratio']['value']}")
            if trace == 1:
                if record["self_exceeds_wall"]:
                    problems.append(f"{where}: layer self time exceeds job wall: {record['self_exceeds_wall']}")
                digests["traced"] = record["traced_digest"]
            digests[trace] = record["digest"]
        if len(set(digests.values())) != 1:
            problems.append(f"{workload}: digests differ between runs: {digests}")
        print(f"{workload}: {'ok' if len(problems) == before else 'FAIL'}", flush=True)

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, lines, _ = run("formula-sums", 0, cwd=bare)
        if code == 0 or lines:
            problems.append(f"without src/: exit {code}, printed {lines[-1:]}")

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
