"""The levychaos benchmark: single-client closed-loop CLI workloads.

    python3 bench/run.py --workload fig3-taylor --seed 1 --seconds 50 --trace 0
    python3 bench/run.py                 # the two gated workloads, seed 1, one after another
    python3 bench/run.py --trace 1       # their per-layer metrics
    python3 bench/run.py --smoke         # a few ops per workload; no timing claims
    python3 bench/run.py --workload exact-rational   # a supplementary, ungated workload

An op is one ``levychaos.cli.main(argv)`` call (two for fig3-taylor, fifteen
for tables-rational),
made in process with ``--out`` into a scratch directory of the checkout.
Each workload runs in its own process (``bench/worker.py``); this script
starts it, takes the set-up time as the worker's CPU time from process start
until it reports READY, and turns the worker's op CPU times into the
end-to-end metrics.  Every time is scaled to a reference host speed (see
``scale``); the unscaled times and wall-clock figures are printed beside
them.  The last
line printed is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fig3-taylor", "tables-rational")  # the ones BENCHMARK.json gates
# Not in BENCHMARK.json (bench/README.md says why); still runnable by name.
# fig3-taylor runs the ops of the first two, one of each per op.
SUPPLEMENTARY = ("fig3-grid", "taylor-exact", "exact-rational")
# Set-up samples per measured run: four probe processes before it, its own
# set-up and four probes after it.  The host's speed drifts, so set-ups
# taken in a row share its state and set-ups a minute apart do not.
PROBES_EACH_SIDE = 4
RUN_TIMEOUT_S = 170.0
# The calibration kernel's CPU time on a quiet host of the machine the
# benchmark was written on (worker.calibrate).
CAL_REF_S = 0.012
# One thread per op: keep numerical libraries from starting thread pools.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, seconds: float, mode: str, smoke: bool, deadline: float):
    """Start a worker and wait for READY; (process, (set-up CPU s, calibration s, set-up wall s), kill timer)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode] + (["--smoke"] if smoke else [])
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env={**os.environ, **WORKER_ENV})
    timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
    timer.start()
    line = proc.stdout.readline().split()
    wall = perf_counter() - start
    if len(line) != 3 or line[0] != "READY":
        finish(proc, timer)
        raise WorkerError(f"{workload} worker ({mode}) exited with {proc.returncode} before set-up finished")
    return proc, (float(line[1]), float(line[2]), wall), timer


def finish(proc, timer) -> str:
    """Read the worker's remaining output and wait until it has exited."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    return rest


def run_worker(workload, seed, seconds, mode, smoke, deadline) -> tuple:
    proc, setup, timer = start_worker(workload, seed, seconds, mode, smoke, deadline)
    rest = finish(proc, timer)
    lines = rest.splitlines()
    if proc.returncode != 0 or (mode != "probe" and not lines):
        raise WorkerError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return setup, (json.loads(lines[-1]) if mode != "probe" else None)


def scale(op_times, cal_times) -> list:
    """Op CPU times at the reference host speed.

    The host's speed drifts by a third over minutes, and a run's median op
    time with it.  Op i is scaled by CAL_REF_S over the mean of the
    calibrations timed just before and just after it, which read the host's
    speed at that moment; the calibration kernel runs no levychaos code, so
    a change to the program does not move it.
    """
    return [t * 2 * CAL_REF_S / (before + after) for t, before, after in zip(op_times, cal_times, cal_times[1:])]


def measure(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    deadline = perf_counter() + RUN_TIMEOUT_S

    def probes():
        return [run_worker(workload, seed, seconds, "probe", smoke, deadline)[0]
                for _ in range(0 if smoke else PROBES_EACH_SIDE)]

    before = probes()
    setup, result = run_worker(workload, seed, seconds, "run", smoke, deadline)
    setups = before + [setup] + probes()
    times = scale(result["op_times"], result["cal_times"])
    raw = result["op_times"]
    done = result["attempted"] - result["failed"]
    result["metrics"] = {
        "setup_s": {"value": statistics.median(cpu * CAL_REF_S / cal for cpu, cal, _ in setups), "unit": "s"},
        "ops_per_s": {"value": done / sum(times), "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "op_p75_s": {"value": statistics.quantiles(times, n=4)[2], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    result["extra"] = {
        "fail_ratio": {"value": result["failed"] / result["attempted"], "unit": "ratio"},
        "host_speed": {"value": CAL_REF_S / statistics.median(result["cal_times"]), "unit": "ratio"},
        "setup_unscaled_s": {"value": statistics.median(cpu for cpu, _, _ in setups), "unit": "s"},
        "op_p50_unscaled_s": {"value": statistics.median(raw), "unit": "s"},
        "op_p75_unscaled_s": {"value": statistics.quantiles(raw, n=4)[2], "unit": "s"},
        "ops_per_unscaled_s": {"value": done / sum(raw), "unit": "1/s"},
        "setup_wall_s": {"value": statistics.median(wall for _, _, wall in setups), "unit": "s"},
        "ops_per_wall_s": {"value": done / result["wall_s"], "unit": "1/s"},
    }
    return result


def trace(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    return run_worker(workload, seed, seconds, "trace", smoke, perf_counter() + RUN_TIMEOUT_S)[1]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:  # no git program
        return None
    return out.stdout.strip() or None


def report(workload: str, seed: int, traced: bool, result: dict) -> None:
    prov = {**result["provenance"], "commit": git_commit(), "seed": seed}
    print(f"# {workload} trace={int(traced)} " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"{workload}: {result['attempted']} ops attempted, {result['failed']} failed")
    for name, m in {**result["metrics"], **result.get("extra", {})}.items():
        value = "MISSING" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {workload}.{name:<38} {value:>12} {m['unit']}")
    for name in result.get("missing", []):
        print(f"  MISSING wrapped name: {name}")
    for reason in result["failures"]:
        print(f"  FAILED op: {reason}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + SUPPLEMENTARY,
                   help="one workload (default: the gated ones, one after another)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0, help="op wall time measured per run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="a few ops per workload, for the benchmark's tests")
    args = p.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            run = trace if args.trace else measure
            results[name] = run(name, args.seed, args.seconds, args.smoke)
            report(name, args.seed, bool(args.trace), results[name])
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
