import gc
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_cli, run_process
from levychaos import cli, evaluate, paths, taylor
from levychaos.chaos import coeff_tables, expand, expansion_to_json_dict, jamshidian_expand, scalar_to_json
from levychaos.models import parse_model
from levychaos.ortho import expand_h
from levychaos.timepoly import TimePolynomial


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
        a = run_process(args + ["--out", str(tmp_path / "a.csv")])
        b = run_process(args + ["--out", str(tmp_path / "b.csv")])
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
# Exact parameters whose floats underflow: 1e-100**4 and 1e-400 are 0.0.  In
# rational mode they stay exact: the golden entries coeffs-4-rational-underflowing-*.
UNDERFLOW_RATE = "cpoisson:lambda=1,jump=expsign:1e-100:1/2"
UNDERFLOW_SCALE = "gamma:a=1,b=1e-400"


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
            P(TAYLOR, {"kind": "exp", "grid": [True]}, "cli.config", id="spec-grid-boolean"),
            P(CONVERGENCE + ["1e-2,abc"], None, "cli.config", id="dt-list-not-float"),
            P(CONVERGENCE + ["1e-2,nan"], None, "paths.invalid", id="dt-list-nan"),
            P(CONVERGENCE + ["1e-2", "--t0", "-0.05"], None, "paths.invalid", id="convergence-negative-t0"),
            P(["coeffs", "--n", "2", "--model", GAMMA, "--bogus", "1"], None, "cli.config", id="unknown-flag"),
            P(["coeffs", "--n", "2", "--model", GAMMA, "--mode", "decimal"], None, "cli.config", id="bad-choice"),
            P(["nosuchcommand"], None, "cli.config", id="unknown-command"),
            P(["coeffs", "--n", "2", "--mod", GAMMA], None, "cli.config", id="abbreviated-flag"),
            P(["simulate", "--model", GAMMA, "--t", "0.1", "--dt", "1e-2", "--seed", "-1"], None, "paths.invalid",
              id="negative-seed"),
            P(["exact-verify", "--n", "2", "--max-jumps", "-1"], None, "paths.invalid", id="negative-max-jumps"),
            P(["exact-verify", "--n", "1", "--count", "1", "--max-jumps", "1100"], None, "paths.invalid",
              id="max-jumps-beyond-the-rational-ticks"),
            P(["simulate", "--model", GAMMA, "--t", "1", "--dt", "1e-12"], None, "paths.invalid",
              id="step-count-beyond-the-limit"),
            P(["simulate", "--model", GAMMA, "--t", "1e300", "--dt", "1e-300"], None, "paths.invalid",
              id="step-count-beyond-float"),
            P(["coeffs", "--n", "2", "--model", "gamma:a=1/0,b=2"], None, "models.invalid", id="zero-denominator"),
            P(["exact-verify", "--n", "0"], None, "evaluate.invalid", id="exact-verify-no-orders"),
            P(["exact-verify", "--n", "2", "--count", "0"], None, "evaluate.invalid", id="exact-verify-no-fixtures"),
            P(["coeffs", "--n", "1000000", "--mode", "rational", "--model", GAMMA], None, "combinatorics.order",
              id="coeffs-order-beyond-cap"),
            P(["coeffs", "--n", "4", "--model", UNDERFLOW_RATE], None, "models.moments",
              id="jump-rate-power-underflows"),
            P(["simulate", "--model", UNDERFLOW_SCALE, "--t", "1", "--dt", "0.1"], None, "paths.invalid",
              id="sampler-scale-underflows"),
            P(["verify", "--model", UNDERFLOW_SCALE, "--n", "2", "--t", "1", "--dt", "0.1"], None, "paths.invalid",
              id="verify-sampler-scale-underflows"),
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

    @pytest.mark.parametrize(
        "argv,message",
        [
            P(TAYLOR + ["--paths", "100000000", "--dt", "1e-3"], "100000000 paths exceed the limit of 1000",
              id="taylor-grid-paths"),
            P(TAYLOR + ["--paths", "64", "--dt", "1e-5"], "64 paths of 50000 steps exceed the limit of 1000000 steps",
              id="taylor-grid-steps"),
            P(TAYLOR + ["--paths", "100000000"], "100000000 paths exceed the limit of 1000", id="taylor-exact-paths"),
            P(["exact-verify", "--n", "1", "--count", "1000000000"], "1000000000 paths exceed the limit of 1000",
              id="exact-verify-count"),
            P(["exact-verify", "--n", "1", "--count", "1000", "--max-jumps", "1024"],
              "1000 fixtures of up to 1024 jumps exceed the limit of 8000 jumps in all", id="exact-verify-jumps"),
        ],
    )
    def test_batch_beyond_the_limit_exits_before_any_draw(self, tmp_path, monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("drawn before the batch check")

        for module, name in [(paths, "simulate_grid"), (evaluate, "random_jump_path"), (evaluate, "rng_for"),
                             (taylor, "rng_for")]:
            monkeypatch.setattr(module, name, refuse)
        res = run_with_spec(tmp_path, argv)
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "paths.invalid" and message in err["message"]
        assert res.stdout == "" and not (tmp_path / "x.out").exists()

    def test_coarsen_error_names_the_step_not_the_factor(self):
        res = run_cli(CONVERGENCE + ["1e-2,1e300"])
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "paths.invalid" and "coarsen" in err["message"]
        assert len(err["message"]) < 200

    def test_missing_required(self):
        res = run_cli(["coeffs", "--model", "gamma:a=10,b=20"])
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"] == "cli.config"


class TestEntryPoint:
    def test_python_m_exits_with_the_status_main_returns(self, tmp_path):
        out = tmp_path / "x.csv"
        bad = run_process(VERIFY + ["--t", "0.1", "--dt", "nan", "--out", str(out)])
        assert bad.returncode == 1 and "Traceback" not in bad.stderr
        assert set(json.loads(bad.stderr)) == {"error", "message"}
        assert not out.exists()
        good = run_process(VERIFY + ["--t", "0.1", "--dt", "1e-2", "--out", str(out)])
        assert good.returncode == 0 and out.exists()


SIMULATE = ["simulate", "--model", GAMMA, "--t", "0.1", "--dt", "1e-2"]
VERIFY_RUN = VERIFY + ["--t", "0.1", "--dt", "1e-2"]
CONVERGENCE_RUN = CONVERGENCE + ["1e-2"]
EXACT_VERIFY = ["exact-verify", "--n", "2", "--count", "2"]
EXP_SPEC = {"kind": "exp", "grid": [0.5]}


def run_with_spec(tmp_path, argv, spec=EXP_SPEC):
    """Run the CLI, giving taylor a spec file and every command an --out file, ``x.out``."""
    if argv and argv[0] == "taylor":
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = argv + ["--spec", str(tmp_path / "spec.json")]
    return run_cli(argv + ["--out", str(tmp_path / "x.out")])


class TestOrderCapFailsFast:
    """An order above LEVY_CHAOS_KMAX exits 1 before any model, path or fixture is built."""

    @pytest.fixture(autouse=True)
    def _nothing_may_be_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built before the order check")

        monkeypatch.delenv("LEVY_CHAOS_KMAX", raising=False)
        for module, name in [(cli, "parse_model"), (cli, "simulate_grid"), (cli, "simulate_batch"),
                             (cli, "model_jump_fixtures"), (evaluate, "simulate_grid")]:
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            P(["verify", "--model", GAMMA, "--n", "13", "--t", "1", "--dt", "1e-7"], "combinatorics.order",
              "order too large: 13 > cap 12", id="verify"),
            P(["convergence", "--model", GAMMA, "--n", "13", "--t", "1", "--dt-list", "1e-6,1e-7"],
              "combinatorics.order", "order too large: 13 > cap 12", id="convergence"),
            P(TAYLOR + ["--orders", "13", "--dt", "1e-7"], "taylor.invalid", "order too large: D=13 > cap 12",
              id="taylor-grid"),
            P(TAYLOR + ["--orders", "2,13"], "taylor.invalid", "order too large: D=13 > cap 12", id="taylor-exact"),
            P(["coeffs", "--model", GAMMA, "--n", "13"], "combinatorics.order", "order too large: 13 > cap 12",
              id="coeffs"),
            P(["expand", "--model", GAMMA, "--n", "13"], "combinatorics.order", "order too large: 13 > cap 12",
              id="expand"),
            P(["exact-verify", "--n", "13"], "combinatorics.order", "order too large: 13 > cap 12",
              id="exact-verify"),
        ],
    )
    def test_over_cap_order_exits_before_any_work(self, tmp_path, argv, code, message):
        res = run_with_spec(tmp_path, argv)
        assert res.returncode == 1
        assert json.loads(res.stderr) == {"error": code, "message": message}
        assert res.stdout == "" and not (tmp_path / "x.out").exists()


class TestFlagTable:
    @pytest.mark.parametrize(
        "argv",
        [
            P(SIMULATE + ["--format", "csv"], id="simulate-format"),
            P(VERIFY_RUN + ["--format", "json"], id="verify-format"),
            P(CONVERGENCE_RUN + ["--format", "csv"], id="convergence-format"),
            P(EXACT_VERIFY + ["--format", "csv"], id="exact-verify-format"),
            P(TAYLOR + ["--format", "csv"], id="taylor-format"),
            P(SIMULATE + ["--mode", "float"], id="simulate-mode"),
            P(VERIFY_RUN + ["--mode", "float"], id="verify-mode"),
            P(CONVERGENCE_RUN + ["--mode", "float"], id="convergence-mode"),
            P(TAYLOR + ["--mode", "rational"], id="taylor-mode"),
            P(EXACT_VERIFY + ["--model", GAMMA], id="exact-verify-model"),
            P(TAYLOR + ["--t0", "0"], id="taylor-t0"),
            P(TAYLOR + ["--t", "5"], id="taylor-t"),
            P(SIMULATE + ["--t0", "0.05"], id="simulate-t0"),
        ],
    )
    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path, argv):
        res = run_with_spec(tmp_path, argv)
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "cli.config" and "unrecognized arguments" in err["message"]
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize("argv", [SIMULATE, VERIFY_RUN, CONVERGENCE_RUN, EXACT_VERIFY, TAYLOR])
    def test_same_command_without_the_flag_runs(self, tmp_path, argv):
        assert run_with_spec(tmp_path, argv).returncode == 0
        assert (tmp_path / "x.out").exists()


class TestSimulate:
    def test_csv_schema_and_determinism(self, tmp_path):
        args = ["simulate", "--model", "brownian:sigma=1", "--t", "0.05", "--dt", "1e-2", "--seed", "3"]
        a = run_process(args)
        b = run_process(args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.splitlines()[0] == "step,t,dX,X"

    def test_out_file_matches_stdout(self, tmp_path):
        args = ["simulate", "--model", "gamma:a=10,b=20", "--t", "0.1", "--dt", "1e-3", "--seed", "5"]
        assert run_cli(args + ["--out", str(tmp_path / "p.csv")]).returncode == 0
        res = run_cli(args)
        assert res.returncode == 0
        assert (tmp_path / "p.csv").read_text(encoding="utf-8") == res.stdout


json_scalars = (
    st.text()  # non-ASCII and control characters included
    | st.integers(min_value=-10**40, max_value=10**40)
    | st.floats()  # -0.0, nan and +-inf included
    | st.booleans()
    | st.none()
)
json_values = st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@st.composite
def json_payloads(draw):
    """A JSON value in which one list object sits twice at one depth and again deeper."""
    shared = draw(st.lists(json_values, max_size=4))
    return {"value": draw(json_values), "same": [shared, shared], "deeper": [shared, {"k": [shared]}]}


class TestJsonText:
    @settings(max_examples=200, deadline=None)
    @given(json_values | json_payloads())
    @example({1: 2, 1.5: [], False: {}, None: "", float("nan"): [[]], "k\u00e9\x00": (1, 2)})
    def test_matches_json_dumps(self, obj):
        assert cli._json_text(obj) == json.dumps(obj, indent=2) + "\n"

    def test_leaves_no_reference_cycle(self):
        shared = ["1/3", 2]
        payload = {"terms": [{"tuple": [1, 2], "poly": shared}, {"tuple": [2, 1], "poly": shared}]}
        gc.collect()
        cli._json_text(payload)
        assert gc.collect() == 0

    def test_refuses_what_json_dumps_refuses(self):
        with pytest.raises(TypeError):
            cli._json_text({"x": [Fraction(1, 3)]})


coefficients = (
    st.integers(min_value=-10**30, max_value=10**30)
    | st.fractions(max_denominator=10**6)
    | st.floats()
)
polys = st.just(TimePolynomial.zero()) | st.lists(coefficients, max_size=6).map(TimePolynomial)
index_tuples = st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=12).map(tuple)


@st.composite
def term_tables(draw):
    """{tuple: TimePolynomial}, empty or not, where several tuples share one polynomial object."""
    pool = draw(st.lists(polys, min_size=1, max_size=4))
    return draw(st.dictionaries(index_tuples, st.sampled_from(pool), max_size=12))


class TestTermTable:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(), json_values, max_size=4), st.dictionaries(st.text(), term_tables(), max_size=2))
    @example({"order": 2}, {"pi": {(1,): TimePolynomial.zero(), (1, 1): TimePolynomial((2, Fraction(-1, 3), -0.5))}})
    @example({}, {"terms": {}})
    def test_matches_json_dumps_of_the_dict_form(self, head, tables):
        head = {k: v for k, v in head.items() if k not in tables}
        rows = {
            key: [{"tuple": list(t), "poly": [scalar_to_json(c) for c in p.coeffs]} for t, p in terms.items()]
            for key, terms in tables.items()
        }
        assert cli._json_text(head, **tables) == json.dumps({**head, **rows}, indent=2) + "\n"

    @pytest.mark.parametrize("model", ["gamma:a=10,b=20", "brownian:sigma=1/10+gamma:a=3,b=7"])
    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_coeffs_output_is_the_dict_form(self, model, mode):
        res = run_cli(["coeffs", "--n", "5", "--mode", mode, "--model", model])
        c_list, exp = coeff_tables(5, parse_model(model), exact=mode == "rational")
        data = json.loads(res.stdout)
        assert data["c"] == [[scalar_to_json(x) for x in p.coeffs] for p in c_list]
        assert data["pi"] == expansion_to_json_dict(exp)["terms"]

    @pytest.mark.parametrize(
        "basis,mode,build",
        [
            ("y", "float", lambda m: expand(5, m)),
            ("y", "rational", lambda m: expand(5, m, exact=True)),
            ("h", "float", lambda m: expand_h(5, m)),
            ("h", "rational", lambda m: expand_h(5, m, exact=True)),
            ("jamshidian", "float", lambda m: jamshidian_expand(5)),
        ],
    )
    def test_expand_output_is_the_dict_form(self, basis, mode, build):
        model = "brownian:sigma=1/10+gamma:a=3,b=7"
        res = run_cli(["expand", "--n", "5", "--basis", basis, "--mode", mode, "--model", model])
        assert json.loads(res.stdout) == expansion_to_json_dict(build(parse_model(model)))


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

    @pytest.mark.parametrize("order", [33, 1000000])
    def test_order_above_the_limit_fails_before_any_moment(self, order, tmp_path, monkeypatch):
        def no_moments(*args, **kwargs):
            raise AssertionError("moments built for an order above the limit")

        monkeypatch.setattr(cli, "orthogonalize", no_moments)
        out = tmp_path / "ortho.json"
        argv = ["ortho", "--model", GAMMA, "--order", str(order), "--mode", "rational", "--out", str(out)]
        res = run_cli(argv)
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "combinatorics.order"
        assert f"{order} > ortho limit {cli._ORTHO_ORDER_LIMIT}" in err["message"]
        assert not out.exists()

    def test_rational_order_at_the_limit_runs(self, tmp_path):
        out = tmp_path / "ortho.json"
        argv = ["ortho", "--model", "brownian:sigma=1+gamma:a=1,b=1", "--order", str(cli._ORTHO_ORDER_LIMIT),
                "--mode", "rational", "--out", str(out)]
        assert run_cli(argv).returncode == 0
        assert json.loads(out.read_text())["order"] == cli._ORTHO_ORDER_LIMIT


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

    def _rows(self, tmp_path, orders):
        res, out = self._run_spec(tmp_path, EXP_SPEC, orders)
        assert res.returncode == 0
        return out.read_text().splitlines()

    def test_unsorted_repeated_orders_keep_one_row_each(self, tmp_path):
        rows = self._rows(tmp_path, "8,2,0,8")
        assert [r.split(",")[0] for r in rows[1:]] == ["8", "2", "0", "8"]
        assert rows[1] == rows[4]
        assert rows[2] == self._rows(tmp_path, "2")[1]

    def test_empty_orders_write_only_the_header(self, tmp_path):
        assert self._rows(tmp_path, "") == ["order,paths,substrate,mean_abs_error,max_abs_error"]

    @pytest.mark.parametrize("orders", ["4,-1", "4,13"])
    def test_order_outside_the_study_fails(self, tmp_path, orders):
        res = run_with_spec(tmp_path, TAYLOR + ["--orders", orders])
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "taylor.invalid"
        assert not (tmp_path / "x.out").exists()

    def _run_spec(self, tmp_path, spec, orders):
        return run_with_spec(tmp_path, TAYLOR + ["--orders", orders], spec), tmp_path / "x.out"

    def test_long_grid_runs(self, tmp_path):
        # 24 intervals at order 2: 325 terms, where a scan of all 3^24 exponent vectors never ends
        res, out = self._run_spec(tmp_path, {"kind": "exp", "grid": [(k + 1) / 24 for k in range(24)]}, "2")
        assert res.returncode == 0
        assert [r.split(",")[0] for r in out.read_text().splitlines()[1:]] == ["2"]

    def test_term_count_above_the_limit_fails(self, tmp_path):
        res, out = self._run_spec(tmp_path, {"kind": "exp", "grid": [(k + 1) / 200 for k in range(200)]}, "2,8")
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"] == "taylor.invalid" and "too many Taylor terms" in err["message"]
        assert not out.exists()

    def test_exact_fixtures_declare_moments_through_the_top_order(self, tmp_path, monkeypatch):
        # an order of 16 reads m13..m16 of the fixtures, as the --dt form of the study does
        monkeypatch.setenv("LEVY_CHAOS_KMAX", "16")
        res, out = self._run_spec(tmp_path, EXP_SPEC, "16")
        assert res.returncode == 0
        assert out.read_text().splitlines()[1].startswith("16,2,exact,")


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

    def test_config_key_naming_a_flag_the_command_does_not_read_fails(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "gamma:a=10,b=20", "n": 2, "t": 0.1, "dt": 1e-2, "mode": "float"}))
        res = run_cli(["verify", "--config", str(cfg)])
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"] == "cli.config"

    def test_cli_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "model": "gamma:a=10,b=20"}))
        res = run_cli(["coeffs", "--config", str(cfg), "--n", "3"])
        assert res.returncode == 0
        assert json.loads(res.stdout)["order"] == 3


# Values drawn for each flag: valid ones, and NaN, infinite, negative, huge and
# non-numeric ones.
FLOATS = ["0", "0.05", "0.5", "1", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "x"]
INTS = ["0", "1", "2", "3", "-1", "1000000", "1e300", "nan", "x"]
FUZZ_VALUES = {
    "--model": [GAMMA, "brownian:sigma=1", "cpoisson:lambda=1,jump=expsign:3:1", "gamma:a=1/0,b=2",
                "gamma:a=1e400,b=1", "drift:mu=0", "x"],
    "--mode": ["float", "rational", "decimal"],
    "--format": ["json", "csv", "xml"],
    "--basis": ["y", "h", "jamshidian", "q"],
    "--n": INTS, "--order": INTS, "--max-jumps": INTS,
    "--seed": INTS + ["99999999999999999999"],
    "--count": INTS, "--paths": INTS,
    "--t0": FLOATS, "--t": FLOATS, "--dt": FLOATS,
    "--dt-list": ["0.05", "0.05,0.5", "1e-300,0.5", "0.05,1e300", "0.05,nan", "-1", "0", "x", ""],
    "--orders": ["2", "2,4", "-1", "1000000", "nan", "", "x"],
    "--spec": ["SPEC", "NOT_AN_OBJECT", "MISSING"],
    "--config": ["CONFIG", "MISSING"],
    "--bogus": ["1"], "--mod": [GAMMA], "--form": ["csv"],
}
# The options each command needs before it does any work; drawn flags follow them and win.
FUZZ_BASE = {
    "coeffs": ["--model", GAMMA, "--n", "2"],
    "expand": ["--model", GAMMA, "--n", "2"],
    "ortho": ["--model", GAMMA, "--order", "2"],
    "simulate": ["--model", GAMMA, "--t", "0.5", "--dt", "0.05"],
    "verify": ["--model", GAMMA, "--n", "2", "--t", "0.5", "--dt", "0.05"],
    "convergence": ["--model", GAMMA, "--n", "2", "--t", "0.5", "--dt-list", "0.05"],
    "exact-verify": ["--n", "2", "--count", "2", "--max-jumps", "2"],
    "taylor": ["--model", GAMMA, "--spec", "SPEC", "--orders", "2,4", "--paths", "2"],
    "nosuchcommand": [],
}


def fuzz_command_argv(command):
    """argv for one command: its base options, then flags drawn half from its own, half from all."""
    names = st.sampled_from(sorted(FUZZ_VALUES))
    if command in cli._COMMANDS:
        _, _, required, optional = cli._COMMANDS[command]
        names = st.one_of(st.sampled_from([f"--{f}" for f in f"{required} {optional}".split()]), names)
    pair = names.flatmap(lambda f: st.sampled_from(FUZZ_VALUES[f]).map(lambda v: [f, v]))
    return st.lists(pair, max_size=4).map(lambda flags: [command, *FUZZ_BASE[command], *sum(flags, [])])


fuzz_argv = st.sampled_from(sorted(FUZZ_BASE)).flatmap(fuzz_command_argv)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(fuzz_argv)
@example(["ortho", "--model", GAMMA, "--order", "1000000"])  # the derandomized draw never holds it
def test_argv_fuzz_exits_0_or_json_error_without_output(argv):
    with tempfile.TemporaryDirectory() as work:
        files = {
            "SPEC": os.path.join(work, "spec.json"),
            "NOT_AN_OBJECT": os.path.join(work, "list.json"),
            "CONFIG": os.path.join(work, "cfg.json"),
            "MISSING": os.path.join(work, "missing.json"),
        }
        for name, data in [("SPEC", EXP_SPEC), ("NOT_AN_OBJECT", [0.5]), ("CONFIG", {"seed": 3})]:
            with open(files[name], "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        out = os.path.join(work, "x.out")
        argv = [files.get(tok, tok) for tok in argv] + ["--out", out]
        res = run_cli(argv)
        if res.returncode == 0:
            return
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert set(err) == {"error", "message"}
        assert not os.path.exists(out)
        assert sorted(os.listdir(work)) == ["cfg.json", "list.json", "spec.json"]
