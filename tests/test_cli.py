import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "levychaos.cli"]


def run_cli(args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + args, capture_output=True, text=True, env=full_env)


class TestCoeffs:
    def test_rational_constant_anchor(self):
        res = run_cli(["coeffs", "--n", "2", "--model", "gamma:a=10,b=20", "--mode", "rational"])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        # constant of order 2: m2 t + m1^2 t^2 = (1/40) t + (1/4) t^2
        assert data["c"][2] == [0, "1/40", "1/4"]
        assert {tuple(item["tuple"]): item["poly"] for item in data["pi"]}[(1, 1)] == [2]

    def test_csv_format(self):
        res = run_cli(["coeffs", "--n", "2", "--model", "gamma:a=10,b=20", "--format", "csv"])
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "kind,index,coeffs"
        assert any(line.startswith("Pi,1 1,") for line in lines)


class TestExpand:
    def test_jamshidian_n3(self):
        res = run_cli(["expand", "--n", "3", "--basis", "jamshidian"])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        coeffs = sorted(item["poly"][0] for item in data["terms"])
        assert coeffs == [1, 3, 3, 6]
        assert data["basis"] == "NONCOMPENSATED"

    def test_h_basis(self):
        res = run_cli(["expand", "--n", "2", "--model", "gamma:a=10,b=20", "--basis", "h", "--mode", "rational"])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["basis"] == "H"
        terms = {tuple(item["tuple"]): item["poly"] for item in data["terms"]}
        assert terms[(1,)][0] == "1/10"  # b21 = -a21 = 1/10

    @pytest.mark.parametrize("kmax", ["0", "-3", "17", "x"])
    def test_order_cap_env_range(self, kmax):
        res = run_cli(["expand", "--n", "2", "--basis", "jamshidian"], env={"LEVY_CHAOS_KMAX": kmax})
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "cli.config" and "[1, 16]" in err["message"]

    def test_order_cap_env(self):
        res = run_cli(["expand", "--n", "5", "--basis", "jamshidian"], env={"LEVY_CHAOS_KMAX": "4"})
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "combinatorics.order"


class TestVerifyCommand:
    def test_diff_csv_and_report(self, tmp_path):
        out = tmp_path / "diff.csv"
        res = run_cli(
            ["verify", "--model", "gamma:a=10,b=20", "--n", "2", "--t0", "0.01", "--t", "0.2",
             "--dt", "1e-2", "--seed", "1", "--out", str(out)]
        )
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["n"] == 2 and report["substrate"] == "grid"
        lines = out.read_text().splitlines()
        assert lines[0] == "step,t,direct,reconstructed,diff"
        assert len(lines) == 21  # 19 post-t0 steps + start point + header

    def test_byte_identical_reruns(self, tmp_path):
        args = ["verify", "--model", "gamma:a=10,b=20", "--n", "3", "--t0", "0", "--t", "0.1",
                "--dt", "1e-2", "--seed", "9"]
        a = run_cli(args + ["--out", str(tmp_path / "a.csv")])
        b = run_cli(args + ["--out", str(tmp_path / "b.csv")])
        assert a.stdout == b.stdout
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_rational_mode_forbidden(self):
        res = run_cli(["verify", "--model", "gamma:a=10,b=20", "--n", "2", "--t", "0.1",
                       "--dt", "1e-2", "--mode", "rational"])
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"] == "cli.config"

    def test_figure3_configuration(self, tmp_path):
        out = tmp_path / "fig3.csv"
        res = run_cli(
            ["verify", "--model", "gamma:a=10,b=20", "--n", "9", "--t0", "0.0099", "--t", "1.0",
             "--dt", "1e-4", "--seed", "1", "--out", str(out)]
        )
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["n"] == 9 and report["t0"] == 0.0099
        lines = out.read_text().splitlines()
        assert len(lines) == 9903  # header + start point + (1.0 - 0.0099)/1e-4 steps
        # diff stays small relative to the series scale
        directs = [abs(float(line.split(",")[2])) for line in lines[1:]]
        assert report["max_abs_diff"] < 0.05 * max(directs)


GAMMA = "gamma:a=10,b=20"
VERIFY = ["verify", "--model", GAMMA, "--n", "2"]
TAYLOR = ["taylor", "--model", GAMMA, "--paths", "2"]
CONVERGENCE = ["convergence", "--model", GAMMA, "--n", "2", "--t", "0.1", "--dt-list"]
P = pytest.param


class TestErrorHygiene:
    @pytest.mark.parametrize(
        "argv,spec,code",
        [
            P(["simulate", "--model", "gamma:a=-1,b=2", "--t", "0.1", "--dt", "1e-2"], None, "models.invalid",
              id="bad-model"),
            P(VERIFY + ["--t", "0.1", "--dt", "nan"], None, "paths.invalid", id="dt-nan"),
            P(VERIFY + ["--t", "nan", "--dt", "1e-2"], None, "paths.invalid", id="t-nan"),
            P(VERIFY + ["--t", "inf", "--dt", "1e-2"], None, "paths.invalid", id="t-inf"),
            P(VERIFY + ["--t", "0.1", "--t0", "nan", "--dt", "1e-2"], None, "paths.invalid", id="t0-nan"),
            P(VERIFY + ["--t", "0.1", "--t0=-inf", "--dt", "1e-2"], None, "paths.invalid", id="t0-minus-inf"),
            P(["expand", "--n", "3", "--model", "gamma:a=1e400,b=1"], None, "models.moments",
              id="overflowing-parameter"),
            P(["simulate", "--model", "gamma:a=1e400,b=1", "--t", "0.1", "--dt", "1e-2"], None, "paths.invalid",
              id="overflowing-sampler-parameter"),
            P(TAYLOR, [0.5], "cli.config", id="spec-not-object"),
            P(TAYLOR, {"kind": "exp"}, "cli.config", id="spec-without-grid"),
            P(TAYLOR + ["--orders", "x"], {"kind": "exp", "grid": [0.5]}, "cli.config", id="orders-not-int"),
            P(TAYLOR, {"kind": "poly", "grid": [0.5]}, "taylor.invalid", id="poly-spec-without-terms"),
            P(TAYLOR, {"kind": "exp", "grid": [0.5], "scale": "x"}, "taylor.invalid", id="spec-scale-not-number"),
            P(TAYLOR, {"kind": "exp", "grid": [0.5], "weights": [1, "w"]}, "taylor.invalid",
              id="spec-weight-not-number"),
            P(TAYLOR, {"kind": "exp", "grid": [0.25, 0.5], "weights": [1]}, "taylor.invalid",
              id="spec-weights-short"),
            P(TAYLOR, {"kind": "poly", "grid": [0.5], "terms": [{"exponents": [1], "coeff": "3"}]}, "taylor.invalid",
              id="spec-coeff-not-number"),
            P(TAYLOR, {"kind": "poly", "grid": [0.5], "terms": [{"exponents": ["1"], "coeff": 3}]}, "taylor.invalid",
              id="spec-exponent-not-int"),
            P(TAYLOR, {"kind": "forward", "grid": [0.5], "s0": 100, "rate": "5%", "maturity": 1}, "taylor.invalid",
              id="spec-rate-not-number"),
            P(TAYLOR, {"kind": "exp", "grid": [-1.0]}, "paths.invalid", id="spec-grid-negative"),
            P(CONVERGENCE + ["1e-2,abc"], None, "cli.config", id="dt-list-not-float"),
            P(CONVERGENCE + ["1e-2,nan"], None, "paths.invalid", id="dt-list-nan"),
            P(["coeffs", "--n", "2", "--model", GAMMA, "--bogus", "1"], None, "cli.config", id="unknown-flag"),
            P(["coeffs", "--n", "2", "--model", GAMMA, "--mode", "decimal"], None, "cli.config", id="bad-choice"),
            P(["nosuchcommand"], None, "cli.config", id="unknown-command"),
        ],
    )
    def test_bad_input_exits_1_with_json_no_partial_file(self, tmp_path, argv, spec, code):
        if spec is not None:
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            argv = argv + ["--spec", str(tmp_path / "spec.json")]
        out = tmp_path / "x.csv"
        res = run_cli(argv + ["--out", str(out)])
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == code
        assert not out.exists()
        leftovers = {p.name for p in tmp_path.iterdir()} - {"spec.json"}
        assert not leftovers  # no temp leftovers either

    def test_missing_required(self):
        res = run_cli(["coeffs", "--model", "gamma:a=10,b=20"])
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"] == "cli.config"


class TestSimulate:
    def test_csv_schema_and_determinism(self, tmp_path):
        args = ["simulate", "--model", "brownian:sigma=1", "--t", "0.05", "--dt", "1e-2", "--seed", "3"]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.splitlines()[0] == "step,t,dX,X"


class TestConvergence:
    def test_decreasing_table(self, tmp_path):
        out = tmp_path / "conv.csv"
        res = run_cli(
            ["convergence", "--model", "gamma:a=10,b=20", "--n", "2", "--t0", "0", "--t", "0.5",
             "--dt-list", "1e-2,1e-3", "--seed", "3", "--out", str(out)]
        )
        assert res.returncode == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["dt", "t0_used", "max_abs_diff", "terminal_diff"]
        assert float(rows[1][2]) > float(rows[2][2])

    def test_t0_snapping_recorded(self, tmp_path):
        out = tmp_path / "conv.csv"
        res = run_cli(
            ["convergence", "--model", "gamma:a=10,b=20", "--n", "2", "--t0", "0.0099", "--t", "0.5",
             "--dt-list", "1e-2,1e-4", "--seed", "3", "--out", str(out)]
        )
        assert res.returncode == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert float(rows[1][1]) == pytest.approx(0.01)  # snapped onto the coarse grid
        assert float(rows[2][1]) == pytest.approx(0.0099)


class TestExactVerify:
    def test_all_exact_zero(self):
        res = run_cli(["exact-verify", "--n", "4", "--count", "6", "--seed", "5"])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["all_exact_zero"] is True
        assert data["max_abs_terminal_diff"] == 0
        assert data["checks"] == 24

    def test_float_mode(self):
        res = run_cli(["exact-verify", "--n", "3", "--count", "4", "--seed", "5", "--mode", "float"])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert abs(data["max_abs_terminal_diff"]) < 1e-9


class TestOrtho:
    def test_json(self):
        res = run_cli(["ortho", "--model", "gamma:a=10,b=20", "--order", "3", "--mode", "rational"])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["a"][1] == ["-1/10", 1]

    def test_float_cap(self):
        res = run_cli(["ortho", "--model", "gamma:a=10,b=20", "--order", "9"])
        assert res.returncode == 1


class TestTaylorCommand:
    def test_truncation_study(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "exp", "order": 2, "grid": [0.5]}))
        out = tmp_path / "taylor.csv"
        res = run_cli(
            ["taylor", "--spec", str(spec), "--model", "gamma:a=10,b=20", "--orders", "2,4",
             "--paths", "6", "--seed", "2", "--out", str(out)]
        )
        assert res.returncode == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["order", "paths", "substrate", "mean_abs_error", "max_abs_error"]
        assert float(rows[1][3]) > float(rows[2][3])
        assert rows[1][2] == "exact"


class TestConfigFile:
    def test_config_supplies_options(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "model": "gamma:a=10,b=20", "mode": "rational"}))
        res = run_cli(["coeffs", "--config", str(cfg)])
        assert res.returncode == 0
        assert json.loads(res.stdout)["c"][2] == [0, "1/40", "1/4"]

    def test_underscore_keys_name_dashed_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "gamma:a=10,b=20", "n": 2, "t": 0.1, "dt_list": "1e-2,1e-3"}))
        res = run_cli(["convergence", "--config", str(cfg)])
        assert res.returncode == 0, res.stderr
        assert len(res.stdout.splitlines()) == 3
        cfg.write_text(json.dumps({"n": 2, "count": 3, "max_jumps": 0}))
        res = run_cli(["exact-verify", "--config", str(cfg)])
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["checks"] == 6

    def test_cli_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "model": "gamma:a=10,b=20"}))
        res = run_cli(["coeffs", "--config", str(cfg), "--n", "3"])
        assert res.returncode == 0
        assert json.loads(res.stdout)["order"] == 3
