"""Print the sha256 of every artifact in the golden CLI list: the manifest.

``tests/test_golden.py`` checks ``tools/golden.sha256`` against this output.
After a change that alters an artifact on purpose, regenerate it with

    PYTHONPATH=src python tools/golden_hashes.py > tools/golden.sha256

The first line records the Python and numpy versions, since grid artifacts
depend on numpy's samplers.  Each further line is ``<sha256>  <name>``.  Each
command runs in process through ``call``, the runner the CLI tests share.
Its stdout and its ``--out`` file are hashed separately; a command that fails
prints ``exit=<code>`` and the sha256 of its stderr.  Leading ``NAME=value``
words set environment variables for that command only, as in a shell.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

from levychaos.cli import main as cli_main

# Words a command may use for a model string; SPECS adds one per spec file.
MODELS = {
    "G": "gamma:a=10,b=20",
    "MIXED": "brownian:sigma=1/10+gamma:a=3,b=7",
    "JUMPY": "brownian:sigma=0.1+cpoisson:lambda=30,jump=expsign:5:3/5",
    "UNDERFLOW": "cpoisson:lambda=1,jump=expsign:1e-100:1/2",  # rate**4 underflows to 0.0 as a float
}
SPECS = {
    "SPEC": {"kind": "exp", "order": 2, "grid": [0.25, 0.5]},
    "SPEC50": {"kind": "exp", "order": 2, "grid": [i / 50 for i in range(1, 51)]},
    "POLY": {"kind": "poly", "order": 3, "grid": [0.25, 0.5],
             "terms": [{"exponents": [0, 0], "coeff": 2}, {"exponents": [2, 1], "coeff": 0.5},
                       {"exponents": [0, 3], "coeff": -1.5}, {"exponents": [1, 0], "coeff": 3}]},
    "FORWARD": {"kind": "forward", "order": 4, "grid": [0.25, 0.5], "s0": 100, "rate": 0.05, "maturity": 1.0},
}
# name: command; a trailing --out writes to a file that is hashed as <name>.out.
GOLDEN = {
    "coeffs-12-rational": "coeffs --n 12 --mode rational --model G",
    "coeffs-8-float": "coeffs --n 8 --model G",
    "coeffs-12-float": "coeffs --n 12 --model G",
    "coeffs-4-rational-integer-gamma": "coeffs --n 4 --mode rational --model gamma:a=1,b=3",
    "coeffs-6-rational-csv": "coeffs --n 6 --mode rational --format csv --model MIXED",
    "expand-8-h-rational": "expand --n 8 --basis h --mode rational --model MIXED",
    "expand-10-y-rational-csv": "expand --n 10 --mode rational --format csv --model MIXED",
    "expand-6-jamshidian": "expand --n 6 --basis jamshidian",
    "expand-6-cpoisson-csv": "expand --n 6 --model cpoisson:lambda=3,jump=point:-1:1/4:2 --format csv",
    "ortho-8-rational": "ortho --order 8 --mode rational --model G",
    "ortho-6-float": "ortho --order 6 --model G",
    "simulate-gamma": "simulate --model G --t 1 --dt 1e-3 --seed 4",
    "simulate-jumpy": "simulate --model JUMPY --t 1 --dt 1e-3 --seed 4",
    "verify-fig3": "verify --n 9 --t0 0.0099 --t 1 --dt 1e-4 --model G --out",
    "verify-mixed": "verify --n 5 --t 1 --dt 1e-3"
                    " --model brownian:sigma=0.2+cpoisson:lambda=5,jump=det:1/2+drift:mu=1 --out",
    "verify-brownian": "verify --n 5 --t 1 --dt 1e-3 --seed 2 --model brownian:sigma=0.2 --out",
    "convergence-4": "convergence --n 4 --t 1 --dt-list 1e-2,1e-3,1e-4 --model G",
    "exact-verify-6": "exact-verify --n 6 --count 30",
    "exact-verify-10": "exact-verify --n 10 --count 5",
    "exact-verify-5-float": "exact-verify --n 5 --count 10 --mode float",
    "taylor-exact": "taylor --spec SPEC --model G --paths 32",
    "taylor-grid": "taylor --spec SPEC --model G --paths 8 --dt 1e-3",
    "taylor-exact-orders": "taylor --spec SPEC --model G --orders 8,2,0,8 --paths 4",
    "coeffs-13-over-cap": "coeffs --n 13 --model G",
    "verify-13-over-cap": "verify --n 13 --t 1 --dt 1e-3 --model G --out",
    "exact-verify-13-over-cap": "exact-verify --n 13 --count 2",
    "taylor-13-over-cap": "taylor --spec SPEC --model G --orders 2,13 --paths 2",
    "expand-13-jamshidian-kmax-13": "LEVY_CHAOS_KMAX=13 expand --n 13 --basis jamshidian",
    "expand-12-h-rational": "expand --n 12 --basis h --mode rational --model MIXED",
    "expand-8-h-float": "expand --n 8 --basis h --model MIXED",
    "expand-8-h-rational-csv": "expand --n 8 --basis h --mode rational --format csv --model G",
    "simulate-gamma-1e5": "simulate --model G --t 1 --dt 1e-5 --seed 4",
    "coeffs-8-rational": "coeffs --n 8 --mode rational --model G",
    "coeffs-8-rational-csv": "coeffs --n 8 --mode rational --format csv --model G",
    "expand-6-h-rational": "expand --n 6 --basis h --mode rational --model G",
    "ortho-6-rational": "ortho --order 6 --mode rational --model G",
    "taylor-grid-256": "taylor --spec SPEC --model G --paths 256 --dt 1e-3",
    "verify-4-1e-5": "verify --n 4 --t 1 --dt 1e-5 --model G --out",
    "taylor-exact-50-intervals": "taylor --spec SPEC50 --model G --orders 2 --paths 2",
    "taylor-grid-steps-over-limit": "taylor --spec SPEC --model G --paths 64 --dt 1e-5",
    "exact-verify-count-over-limit": "exact-verify --n 1 --count 1000000000",
    "ortho-8-rational-csv": "ortho --order 8 --mode rational --format csv --model G",
    "ortho-6-float-csv": "ortho --order 6 --format csv --model G",
    "taylor-exact-poly": "taylor --spec POLY --model G --paths 8",
    "taylor-exact-forward": "taylor --spec FORWARD --model G --paths 8",
    "coeffs-4-float-out": "coeffs --n 4 --model G --out",
    "exact-verify-jumps-over-limit": "exact-verify --n 1 --count 1000 --max-jumps 1024",
    "expand-8-y-float": "expand --n 8 --model MIXED",
    "expand-8-y-rational": "expand --n 8 --mode rational --model MIXED",
    "coeffs-4-underflowing-rate": "coeffs --n 4 --model UNDERFLOW",
    "coeffs-4-rational-underflowing-rate": "coeffs --n 4 --mode rational --model UNDERFLOW",
    "coeffs-4-rational-underflowing-scale": "coeffs --n 4 --mode rational --model gamma:a=1,b=1e-400",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def header() -> str:
    """The manifest's first line: the versions that grid artifacts depend on."""
    return f"# python {platform.python_version()} numpy {np.__version__}"


def call(argv: list[str], env: dict[str, str] | None = None) -> SimpleNamespace:
    """Run ``cli.main(argv)`` in process with ``env`` added to the environment: its returncode, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())


def run(name: str, work: str) -> list[str]:
    """The manifest lines of entry ``name``, run in process; spec and ``--out`` files go in ``work``."""
    words = dict(MODELS)
    for word, spec in SPECS.items():
        words[word] = os.path.join(work, word + ".json")
        Path(words[word]).write_text(json.dumps(spec), encoding="utf-8")
    argv, env, out_file = [words.get(w, w) for w in GOLDEN[name].split()], {}, os.path.join(work, name + ".out")
    while "=" in argv[0]:
        key, value = argv.pop(0).split("=", 1)
        env[key] = value
    if argv[-1] == "--out":
        argv.append(out_file)
    res = call(argv, env)
    if res.returncode:
        return [f"exit={res.returncode} {_sha(res.stderr.encode())}  {name}"]
    lines = [f"{_sha(res.stdout.encode())}  {name}"]
    if argv[-1] == out_file:
        lines.append(f"{_sha(Path(out_file).read_bytes())}  {name}.out")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        print(header())
        for name in GOLDEN:
            print("\n".join(run(name, work)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
