"""The benchmark's own tests: smoke runs with no timing assertions.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, pi_sample  # noqa: E402

lc = worker.import_levychaos()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / ".bench_work"))
    yield str(path)
    shutil.rmtree(path, ignore_errors=True)


def smoke_ops(name, work, seed=5):
    return WORKLOADS[name].make_ops(random.Random(f"{name}/{seed}"), worker.SMOKE_OPS, work)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_ops_pass_their_checks(name, work):
    result = worker.run_loop(WORKLOADS[name], smoke_ops(name, work), lc, 0.0, worker.SMOKE_OPS)
    assert result["attempted"] == worker.SMOKE_OPS
    assert result["failed"] == 0, result["failures"]


def _replace_once(old, new):
    def corrupt(path):
        text = Path(path).read_text()
        assert old in text
        Path(path).write_text(text.replace(old, new, 1))

    return corrupt


def _corrupt_last_reconstructed(path):
    lines = Path(path).read_text().splitlines()
    step, t, direct, recon, diff = lines[-1].split(",")
    lines[-1] = ",".join([step, t, direct, repr(float(recon) * (1 + 1e-12) + 1e-300), diff])
    Path(path).write_text("\n".join(lines) + "\n")


def _corrupt_sampled_pi(op):
    def corrupt(path):
        data = json.loads(Path(path).read_text())
        entry = data["pi"][pi_sample(op.info["models"][0])[0]]
        entry["poly"][0] = str(lc.chaos.scalar_from_json(entry["poly"][0]) + 1)
        Path(path).write_text(json.dumps(data))

    return corrupt


def _bump_json_entry(path, key, i, j):
    data = json.loads(Path(path).read_text())
    data[key][i][j] = str(lc.chaos.scalar_from_json(data[key][i][j]) + 1)
    Path(path).write_text(json.dumps(data))


def _corrupt_c3(path):
    _bump_json_entry(path, "c", 3, 1)


def _corrupt_ortho(path):
    _bump_json_entry(path, "b", 2, 0)


def _taylor_order8(value):
    def corrupt(path):
        lines = Path(path).read_text().splitlines()
        lines[-1] = ",".join(lines[-1].split(",")[:4] + [value])
        Path(path).write_text("\n".join(lines) + "\n")

    return corrupt


# (workload, command whose artifact is corrupted, corruption given the op)
CORRUPTIONS = [
    ("fig3-grid", "verify", lambda op: _corrupt_last_reconstructed),
    ("exact-rational", "exact-verify", lambda op: _replace_once('"all_exact_zero": true', '"all_exact_zero": false')),
    ("exact-rational", "exact-verify", lambda op: _replace_once('"checks": 30', '"checks": 29')),
    ("tables-rational", "coeffs", lambda op: _corrupt_c3),
    ("tables-rational", "coeffs", _corrupt_sampled_pi),
    ("tables-rational", "expand", lambda op: _replace_once('"basis": "H"', '"basis": "Y"')),
    ("tables-rational", "ortho", lambda op: _corrupt_ortho),
    ("taylor-exact", "taylor", lambda op: _taylor_order8("nan")),
    ("taylor-exact", "taylor", lambda op: _taylor_order8("0.01")),
    ("fig3-taylor", "verify", lambda op: _corrupt_last_reconstructed),
    ("fig3-taylor", "taylor", lambda op: _taylor_order8("nan")),
]


@pytest.mark.parametrize("name,command,corruption", CORRUPTIONS)
def test_corrupted_artifact_counts_as_failure(name, command, corruption, work, monkeypatch):
    ops = smoke_ops(name, work)
    real_main = lc.cli.main
    current = {}

    def corrupting_main(argv):
        rc = real_main(argv)
        if argv[0] == command:
            corruption(current["op"])(argv[argv.index("--out") + 1])
        return rc

    def execute(op, cli):
        current["op"] = op
        return real_execute(op, cli)

    real_execute = worker.execute
    monkeypatch.setattr(lc.cli, "main", corrupting_main)
    monkeypatch.setattr(worker, "execute", execute)
    result = worker.run_loop(WORKLOADS[name], ops, lc, 0.0, worker.SMOKE_OPS)
    assert result["attempted"] == worker.SMOKE_OPS
    assert result["failed"] == worker.SMOKE_OPS, result["failures"]


def test_raising_or_nonzero_op_counts_as_failure(work, monkeypatch):
    ops = smoke_ops("exact-rational", work)
    outcomes = iter([RuntimeError("boom"), 1, SystemExit(2)])

    def broken_main(argv):
        outcome = next(outcomes)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(lc.cli, "main", broken_main)
    result = worker.run_loop(WORKLOADS["exact-rational"], ops, lc, 0.0, worker.SMOKE_OPS)
    assert (result["attempted"], result["failed"]) == (3, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trace_counts_repeat_exactly(name, work):
    first = worker.run_traced(WORKLOADS[name], smoke_ops(name, work), lc)
    second = worker.run_traced(WORKLOADS[name], smoke_ops(name, work), lc)
    assert first["failed"] == second["failed"] == 0
    assert first["missing"] == []
    for metric in tracer.COUNT_METRICS:
        assert first["metrics"][metric] == second["metrics"][metric], metric
    assert all(m["value"] is not None for m in first["metrics"].values())


def test_tracer_wraps_the_names_callers_use():
    originals = {
        (lc.evaluate, "power_increments"): lc.evaluate.power_increments,
        (lc.paths, "power_increments"): lc.paths.power_increments,
        (lc.cli, "verify_grid"): lc.cli.verify_grid,
        (lc.taylor, "reconstruct"): lc.taylor.reconstruct,
        (lc.cli, "main"): lc.cli.main,
    }
    with tracer.Tracer().op():
        for (module, attr), fn in originals.items():
            assert getattr(module, attr).__wrapped__ is fn
        assert lc.timepoly.TimePolynomial.__call__.__name__ == "__call__"
        assert not hasattr(lc.chaos.scalar_to_json, "__wrapped__")
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn


def test_trace_self_time_nests(work):
    tr = tracer.Tracer()
    with tr.op():
        lc.cli.main(["coeffs", "--n", "4", "--mode", "rational", "--model", "gamma:a=1,b=2",
                     "--out", str(Path(work) / "nest.json")])
    metrics = tr.metrics()
    total = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracer.LAYERS)
    assert abs(total - tr.incl["cli.main"]) < 1e-9
    assert metrics["chaos.pi_coeff.calls"]["value"] == 2**4 - 1
    assert metrics["cli.errors"]["value"] == 0


def test_missing_wrapped_name_is_reported_not_zero(monkeypatch):
    monkeypatch.delattr(lc.taylor, "reconstruct")
    tr = tracer.Tracer()
    assert "levychaos.taylor.reconstruct" in tr.missing
    assert tr.metrics()["taylor.reconstruct.calls"]["value"] is None


def test_errors_are_counted_once_per_layer():
    tr = tracer.Tracer()
    with tr.op():
        with pytest.raises(lc.errors.OrderError):
            lc.chaos.expand(0, lc.parse_model("gamma:a=1,b=2"))
    assert tr.metrics()["chaos.errors"]["value"] == 1


def test_scale_divides_out_the_host_speed():
    ref = run.CAL_REF_S
    assert run.scale([1.0, 2.0], [ref, ref, ref]) == [1.0, 2.0]
    # On a host half as fast the calibrations and the op take twice as long.
    assert run.scale([2.0, 4.0], [2 * ref, 2 * ref, 2 * ref]) == pytest.approx([1.0, 2.0])
    # Each op is scaled by the two calibrations around it.
    assert run.scale([3.0], [ref, 2 * ref]) == pytest.approx([2.0])


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_script_prints_the_declared_metrics(trace, section):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "tables-rational", "--seed", "3",
                          "--seconds", "1", "--trace", str(trace), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_script_fails_without_the_package(work):
    bare = Path(work) / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "fig3-taylor", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
