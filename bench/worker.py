"""One workload in one process: set up, print READY, run the ops, print a JSON line.

``bench/run.py`` starts this script once per set-up sample and once per
measured run.  Set-up is everything before the first timed op: interpreter
start, ``import levychaos`` from this checkout's ``src/``, and generating
every op's argv, spec file and seed from the workload seed.

Modes:

* ``probe``: set up, print READY, exit (a set-up time sample).
* ``run``: timed closed loop, one op at a time, for ``--seconds`` of op
  wall time and at least ``MIN_OPS`` ops.  Each op is checked after its
  clocks stop; checking, the calibrations and the ``gc.collect()`` before
  each op are the benchmark's own work and are not counted as op time.
* ``trace``: a fixed number of ops, each run once untraced and once under
  the outside-in tracer (alternating which goes first), so per-layer counts
  repeat exactly at one seed and the two op rates give the tracing overhead.

Times are this process's CPU time (``time.process_time``): every op runs
on one thread and waits on nothing, so its CPU time is its wall time minus
the time the host takes the virtual CPU away, which reached a third of the
wall time on the machine the benchmark was written on.  READY carries the
CPU time since the process started, which covers interpreter start, and the
time of the calibration kernel run right after set-up.

The host's speed also drifts: the same op pool ran at a median of 0.62 s
and, a minute later, 0.95 s per op.  So the ``run`` loop times
``calibrate()``, a fixed kernel of plain Python, ``Fraction``, ``json`` and
numpy work that calls no levychaos code, before the first op and after each
op.  ``bench/run.py`` scales each op time by the host speed those two
calibrations read (see ``scale``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
MIN_OPS = 40  # so at least ten op times lie beyond op_p75_s
SMOKE_OPS = 3
MAX_REPORTED_FAILURES = 5


def import_levychaos():
    """The package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "levychaos" / "__init__.py").is_file():
        raise SystemExit(f"bench: no levychaos package under {src}")
    sys.path.insert(0, str(src))
    import levychaos
    import levychaos.cli

    if Path(levychaos.__file__).resolve().parent != (src / "levychaos").resolve():
        raise SystemExit(f"bench: imported levychaos from {levychaos.__file__}, not {src}")
    return levychaos


def pool_size(workload, mode: str, seconds: float, smoke: bool) -> int:
    if smoke:
        return SMOKE_OPS
    if mode == "trace":
        return workload.trace_ops
    return max(MIN_OPS, math.ceil(seconds * workload.max_rate))


def execute(op, cli) -> list:
    """Run the op's CLI calls in process; [(exit code or error text, stdout)]."""
    results = []
    for argv in op.argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:
            rc = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        results.append((rc, out.getvalue()))
        if rc != 0:
            break
    return results


def verdict(workload, op, results, lc):
    """None when the op succeeded and its artifacts pass the workload's check."""
    for (rc, _), argv in zip(results, op.argvs):
        if rc != 0:
            return f"{argv[0]}: exit {rc}"
    try:
        return workload.check(op, results, lc)
    except Exception as exc:  # a malformed artifact fails the op, not the run
        return f"unreadable artifact: {type(exc).__name__}: {exc}"


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def add(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REPORTED_FAILURES:
                self.reasons.append(reason)


def calibrate() -> float:
    """CPU seconds of a fixed kernel that uses no levychaos code (about 12 ms on a quiet host).

    Its mix (bytecode, small-object allocation, Fraction, json, numpy) is
    that of the workloads, so the host's slow states slow it about as much.
    The collector is off while it runs, so the program's heap cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        x = 0
        for i in range(20000):
            x += i * i % 7
        fracs = [Fraction(i, 7) * Fraction(3, i + 1) + Fraction(1, 3) for i in range(1500)]
        json.loads(json.dumps([str(f) for f in fracs]))
        table = {}
        for i in range(5000):
            table[(i, i % 13)] = [i, str(i)]
        a = np.arange(20000, dtype=float)
        for _ in range(5):
            (np.cumsum(a) ** 3).sum()
        return process_time() - start
    finally:
        if enabled:
            gc.enable()


def timed_op(workload, op, lc, tally: Tally) -> tuple:
    """(CPU seconds, wall seconds) of one op; its check runs after both clocks stop."""
    gc.collect()
    wall, cpu = perf_counter(), process_time()
    results = execute(op, lc.cli)
    cpu, wall = process_time() - cpu, perf_counter() - wall
    tally.add(verdict(workload, op, results, lc))
    return cpu, wall


def run_loop(workload, ops, lc, seconds: float, min_ops: int) -> dict:
    """Timed ops; cal_times[i] and cal_times[i + 1] bracket op_times[i]."""
    tally, times, cals, wall_s = Tally(), [], [calibrate()], 0.0
    for op in ops:
        if wall_s >= seconds and len(times) >= min_ops:
            break
        cpu, wall = timed_op(workload, op, lc, tally)
        cals.append(calibrate())
        times.append(cpu)
        wall_s += wall
    return {"attempted": tally.attempted, "failed": tally.failed, "failures": tally.reasons,
            "op_times": times, "cal_times": cals, "wall_s": wall_s}


def run_traced(workload, ops, lc) -> dict:
    tracer, tally = Tracer(), Tally()
    plain_s = traced_s = 0.0
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.op():
                    traced_s += timed_op(workload, op, lc, tally)[0]
            else:
                plain_s += timed_op(workload, op, lc, tally)[0]
    metrics = tracer.metrics()
    plain_rate, traced_rate = len(ops) / plain_s, len(ops) / traced_s
    metrics["trace.untraced_ops_per_s"] = {"value": plain_rate, "unit": "1/s"}
    metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.overhead_ops_per_s"] = {"value": plain_rate - traced_rate, "unit": "1/s"}
    return {"attempted": tally.attempted, "failed": tally.failed, "failures": tally.reasons,
            "metrics": metrics, "missing": tracer.missing}


def provenance(lc) -> dict:
    return {"python": sys.version.split()[0], "numpy": np.__version__, "nproc": os.cpu_count(),
            "levychaos": lc.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["probe", "run", "trace"], required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    lc = import_levychaos()
    workload = WORKLOADS[args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work")
    try:
        rng = random.Random(f"{args.workload}/{args.seed}")
        ops = workload.make_ops(rng, pool_size(workload, args.mode, args.seconds, args.smoke), work)
        setup = process_time()
        calibrate()  # warm-up
        cal = (calibrate() + calibrate()) / 2
        sys.stdout.write(f"READY {setup!r} {cal!r}\n")
        sys.stdout.flush()
        if args.mode == "probe":
            return 0
        if args.mode == "trace":
            result = run_traced(workload, ops, lc)
        else:
            result = run_loop(workload, ops, lc, 0.0 if args.smoke else args.seconds,
                              SMOKE_OPS if args.smoke else MIN_OPS)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["provenance"] = provenance(lc)
        sys.stdout.write(json.dumps(result) + "\n")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
