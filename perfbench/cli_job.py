"""Run one CLI job traced: install the tracer's wrappers, call
``diagfock.cli.main(argv)`` and write the trace to a JSON file.

    python perfbench/cli_job.py TRACE_JSON JOB_ID SUBCOMMAND [ARGS...]

The exit code is the CLI's.  The traced ``cli-cold`` pass starts each job
through this script in place of ``python -m diagfock.cli``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, job_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import diagfock.cli

    tracer = Tracer()
    tracer.install()
    code, _, layer_self = tracer.run_job(job_id, lambda: diagfock.cli.main(argv))
    with open(trace_path, "w") as fh:
        json.dump({**tracer.dump(), "caches": tracer.cache_counters(), "layer_self": layer_self}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
