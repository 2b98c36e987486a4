"""Print the sha256 of every artifact in the golden CLI list.

Run it on two checkouts and diff the output to show that a change keeps
every artifact byte-identical:

    PYTHONPATH=src python tools/golden_hashes.py > after.txt

Each line is ``<sha256>  <name>``.  A command's stdout and its ``--out``
file are hashed separately; a command that fails prints ``exit=<code>``
and the sha256 of its stderr, so error codes and messages are pinned too.
Leading ``NAME=value`` words of an entry set environment variables, as in
a shell.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

G = "gamma:a=10,b=20"
MIXED = "brownian:sigma=1/10+gamma:a=3,b=7"
JUMPY = "brownian:sigma=0.1+cpoisson:lambda=30,jump=expsign:5:3/5"

# (name, argv, writes --out); taylor specs are written to SPEC before running.
GOLDEN = [
    ("coeffs-12-rational", ["coeffs", "--n", "12", "--mode", "rational", "--model", G], False),
    ("coeffs-8-float", ["coeffs", "--n", "8", "--model", G], False),
    ("coeffs-12-float", ["coeffs", "--n", "12", "--model", G], False),
    ("coeffs-4-rational-integer-gamma", ["coeffs", "--n", "4", "--mode", "rational", "--model", "gamma:a=1,b=3"],
     False),
    ("coeffs-6-rational-csv",
     ["coeffs", "--n", "6", "--mode", "rational", "--format", "csv", "--model", MIXED], False),
    ("expand-8-h-rational", ["expand", "--n", "8", "--basis", "h", "--mode", "rational", "--model", MIXED], False),
    ("expand-10-y-rational-csv",
     ["expand", "--n", "10", "--mode", "rational", "--format", "csv", "--model", MIXED], False),
    ("expand-6-jamshidian", ["expand", "--n", "6", "--basis", "jamshidian"], False),
    ("expand-6-cpoisson-csv",
     ["expand", "--n", "6", "--model", "cpoisson:lambda=3,jump=point:-1:1/4:2", "--format", "csv"], False),
    ("ortho-8-rational", ["ortho", "--order", "8", "--mode", "rational", "--model", G], False),
    ("ortho-6-float", ["ortho", "--order", "6", "--model", G], False),
    ("simulate-gamma", ["simulate", "--model", G, "--t", "1", "--dt", "1e-3", "--seed", "4"], False),
    ("simulate-jumpy", ["simulate", "--model", JUMPY, "--t", "1", "--dt", "1e-3", "--seed", "4"], False),
    ("verify-fig3",
     ["verify", "--n", "9", "--t0", "0.0099", "--t", "1", "--dt", "1e-4", "--model", G], True),
    ("verify-mixed",
     ["verify", "--n", "5", "--t", "1", "--dt", "1e-3",
      "--model", "brownian:sigma=0.2+cpoisson:lambda=5,jump=det:1/2+drift:mu=1"], True),
    ("verify-brownian",
     ["verify", "--n", "5", "--t", "1", "--dt", "1e-3", "--seed", "2", "--model", "brownian:sigma=0.2"], True),
    ("convergence-4", ["convergence", "--n", "4", "--t", "1", "--dt-list", "1e-2,1e-3,1e-4", "--model", G], False),
    ("exact-verify-6", ["exact-verify", "--n", "6", "--count", "30"], False),
    ("exact-verify-10", ["exact-verify", "--n", "10", "--count", "5"], False),
    ("exact-verify-5-float", ["exact-verify", "--n", "5", "--count", "10", "--mode", "float"], False),
    ("taylor-exact", ["taylor", "--spec", "SPEC", "--model", G, "--paths", "32"], False),
    ("taylor-grid", ["taylor", "--spec", "SPEC", "--model", G, "--paths", "8", "--dt", "1e-3"], False),
    ("taylor-exact-orders", ["taylor", "--spec", "SPEC", "--model", G, "--orders", "8,2,0,8", "--paths", "4"], False),
    ("coeffs-13-over-cap", ["coeffs", "--n", "13", "--model", G], False),
    ("verify-13-over-cap", ["verify", "--n", "13", "--t", "1", "--dt", "1e-3", "--model", G], True),
    ("exact-verify-13-over-cap", ["exact-verify", "--n", "13", "--count", "2"], False),
    ("taylor-13-over-cap", ["taylor", "--spec", "SPEC", "--model", G, "--orders", "2,13", "--paths", "2"], False),
    ("expand-13-jamshidian-kmax-13", ["LEVY_CHAOS_KMAX=13", "expand", "--n", "13", "--basis", "jamshidian"], False),
    ("expand-12-h-rational", ["expand", "--n", "12", "--basis", "h", "--mode", "rational", "--model", MIXED], False),
    ("expand-8-h-float", ["expand", "--n", "8", "--basis", "h", "--model", MIXED], False),
    ("expand-8-h-rational-csv",
     ["expand", "--n", "8", "--basis", "h", "--mode", "rational", "--format", "csv", "--model", G], False),
    ("simulate-gamma-1e5", ["simulate", "--model", G, "--t", "1", "--dt", "1e-5", "--seed", "4"], False),
]
SPEC = {"kind": "exp", "order": 2, "grid": [0.25, 0.5]}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        spec = os.path.join(work, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(SPEC, fh)
        for name, argv, writes in GOLDEN:
            env = dict(os.environ)
            while "=" in argv[0]:
                key, value = argv[0].split("=", 1)
                env[key], argv = value, argv[1:]
            argv = [spec if a == "SPEC" else a for a in argv]
            out = os.path.join(work, name + ".out")
            if writes:
                argv = argv + ["--out", out]
            res = subprocess.run([sys.executable, "-m", "levychaos.cli", *argv], capture_output=True, env=env)
            if res.returncode:
                print(f"exit={res.returncode} {_sha(res.stderr)}  {name}")
                continue
            print(f"{_sha(res.stdout)}  {name}")
            if writes:
                with open(out, "rb") as fh:
                    print(f"{_sha(fh.read())}  {name}.out")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
