"""Each CLI subcommand loads only the diagfock modules it runs, and a bare
``import diagfock`` loads none: a module costs its compile time on every cold
start where no bytecode cache is written.  No command loads ``dataclasses``
or ``inspect`` (with ``ast``, ``dis`` and ``tokenize``), which the records
would pull in as dataclasses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diagfock

SRC = str(Path(diagfock.__file__).resolve().parents[1])

STDLIB = ("dataclasses", "inspect")  # the stdlib modules no command loads

# runs argv through diagfock.cli.main and prints [exit code, loaded diagfock.*
# modules, loaded STDLIB modules]
PROBE = f"""
import contextlib, io, json, sys
import diagfock.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = diagfock.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m[len("diagfock."):] for m in sys.modules if m.startswith("diagfock.")),
                  [m for m in {STDLIB!r} if m in sys.modules]]))
"""


def loaded(code, *argv, stdin=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code, *argv], input=stdin, capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


SPEC = {"xi": [["1"]], "T": [[["1"]]], "lam": ["1"]}
PAIRS = {"a": {"lam": "0", "tau": ["1", "0"]}, "b": {"lam": "1", "tau": ["1", "1"]}, "nmax": 3}
PSI = {"0": "0", "0 0": "1", "0 0 0": "0", "0 0 0 0": "0"}
VECTORS = {"kind": "gaussian", "vectors": [{"xi": ["1"], "eta": ["2"]}] * 2}
OPERATOR_MODEL = {"fock", "wick"}
NO_LEVY = OPERATOR_MODEL | {"levy", "_linalg"}
NO_ORTHOPOLY = {"orthopoly"}

# (argv, JSON on stdin or None, the modules the command must not load)
COMMANDS = [
    (["euler", "--nmax", "5"], None, NO_LEVY),
    (["partitions", "--n", "4"], None, NO_LEVY | NO_ORTHOPOLY),
    (["moments", "--family", "hermite", "--nmax", "4", "--symbolic"], None, NO_LEVY),
    (["polys", "--family", "poisson", "--nmax", "3"], None, NO_LEVY),
    (["cauchy", "--family", "sech", "--depth", "10"], None, NO_LEVY),
    (["density", "--kind", "qmp", "--q", "1/2", "--x", "0.25", "--mass"], None, NO_LEVY),
    (["wick", "--input", "-"], VECTORS, NO_ORTHOPOLY),
    (["levy", "--input", "-"], {"spec": SPEC, "word": [0, 0]}, OPERATOR_MODEL | NO_ORTHOPOLY),
    (["convolve", "--input", "-"], PAIRS, OPERATOR_MODEL | NO_ORTHOPOLY),
    (["gns", "--input", "-"], {"k": 1, "maxlen": 2, "psi": PSI}, OPERATOR_MODEL | NO_ORTHOPOLY),
    (["verify"], None, set()),
]


@pytest.mark.parametrize("argv, job, unused", COMMANDS, ids=[c[0][0] for c in COMMANDS])
def test_each_subcommand_loads_only_what_it_runs(argv, job, unused):
    code, modules, stdlib = loaded(PROBE, *argv, stdin=None if job is None else json.dumps(job))
    assert code == 0
    assert sorted(unused & set(modules)) == []
    assert stdlib == []


def test_importing_the_package_loads_no_module():
    assert loaded("import json, sys, diagfock; print(json.dumps(sorted(m for m in sys.modules if m.startswith('diagfock.'))))") == []


def test_importing_the_cli_loads_partitions_and_scalars():
    # the benchmark's tracer (perfbench/tracer.py, METHODS) wraps methods of
    # diagfock.partitions and diagfock.scalars found in sys.modules right
    # after `import diagfock.cli`, so the CLI loads both at import
    modules = set(loaded("import json, sys, diagfock.cli; print(json.dumps(sorted(sys.modules)))"))
    assert {"diagfock.partitions", "diagfock.scalars"} <= modules
    assert sorted(modules & {"diagfock.orthopoly", *STDLIB}) == []
