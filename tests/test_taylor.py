import itertools
import math
from fractions import Fraction

import pytest

from conftest import run_cli
from levychaos import taylor
from levychaos.chaos import expand_from_moments
from levychaos.errors import FunctionalError, PathError
from levychaos.evaluate import reconstruct
from levychaos.paths import make_jump_path, simulate_grid
from levychaos.taylor import (
    eval_functional,
    exp_functional,
    forward_contract,
    functional_from_json,
    model_jump_fixtures,
    poly_functional,
    taylor_terms,
)

ZMV = (0,) * 8


def symbolic_exp_derivative(order, e):
    """Oracle for the forward example: d^e of c*exp(x) at 0 is c, any order."""
    return 1.0


class TestTaylorTerms:
    def test_exp_univariate_coefficients(self):
        spec = exp_functional((1.0,), 5)
        got = dict(taylor_terms(spec))
        for e in range(6):
            assert got[(e,)] == pytest.approx(1 / math.factorial(e))

    def test_bilinear_single_term(self):
        spec = poly_functional((Fraction(1, 2), Fraction(1)), 2, {(1, 1): 1})
        assert taylor_terms(spec) == [((1, 1), 1)]

    def test_forward_contract_coefficients(self):
        s0, r, T = 100.0, 0.05, 2.0
        spec = forward_contract((1.0,), 4, s0, r, T)
        scale = s0 * math.exp(r * (T - 1.0))
        got = dict(taylor_terms(spec))
        for e in range(5):
            # oracle: all derivatives of scale*exp(x) at 0 equal scale
            assert got[(e,)] == pytest.approx(scale * symbolic_exp_derivative(e, e) / math.factorial(e))

    def test_cross_term_multiplicities(self):
        # g = exp(x1 + x2): coefficient of x1^2 x2 is 1/(2! 1!)
        spec = exp_functional((0.5, 1.0), 3)
        got = dict(taylor_terms(spec))
        assert got[(2, 1)] == pytest.approx(1 / 2)
        assert got[(1, 1)] == pytest.approx(1.0)

    @pytest.mark.parametrize("arity,order", [(1, 8), (2, 8), (3, 6), (5, 4), (7, 3)])
    def test_direct_enumeration_equals_the_product_scan(self, arity, order):
        # oracle: every vector of the box (D+1)^arity, filtered by degree
        spec = exp_functional([k + 1 for k in range(arity)], order, weights=[k + 2 for k in range(arity)])
        scanned = [
            e for total in range(order + 1)
            for e in itertools.product(range(total + 1), repeat=arity) if sum(e) == total
        ]
        assert [e for e, _ in taylor_terms(spec)] == scanned
        assert len(scanned) == math.comb(order + arity, arity)


class TestEvalFunctional:
    def test_square_captured_exactly(self):
        path = make_jump_path(1, Fraction(1, 5), [(Fraction(1, 3), Fraction(1, 2))], ZMV)
        spec = poly_functional((Fraction(1),), 2, {(2,): Fraction(1)})
        rep = eval_functional(spec, path)
        assert rep.abs_errors[0] == 0
        # agrees with the order-2 reconstruction directly
        exp2 = expand_from_moments(2, path.mv)
        assert rep.approximations[0] == reconstruct(exp2, path, Fraction(0), Fraction(1))

    def test_polynomial_total_degree_exact(self):
        path = make_jump_path(
            1,
            Fraction(-1, 7),
            [(Fraction(1, 4), Fraction(2, 3)), (Fraction(5, 8), Fraction(-1, 2))],
            (Fraction(1, 3), Fraction(2, 5), Fraction(0), Fraction(1, 2), 0, 0, 0, 0),
        )
        spec = poly_functional(
            (Fraction(1, 2), Fraction(1)),
            4,
            {(2, 1): Fraction(5, 2), (1, 0): Fraction(1, 3), (0, 4): Fraction(-2), (0, 0): Fraction(7)},
        )
        rep = eval_functional(spec, path)
        assert rep.abs_errors[0] == 0

    def test_bilinear_equals_interval_product(self):
        x, y = Fraction(2, 3), Fraction(-3, 5)
        path = make_jump_path(1, 0, [(Fraction(1, 4), x), (Fraction(3, 4), y)], ZMV)
        spec = poly_functional((Fraction(1, 2), Fraction(1)), 2, {(1, 1): 1})
        rep = eval_functional(spec, path)
        exp1 = expand_from_moments(1, path.mv)
        lhs = reconstruct(exp1, path, Fraction(0), Fraction(1, 2)) * reconstruct(
            exp1, path, Fraction(1, 2), Fraction(1)
        )
        assert rep.approximations[0] == lhs == x * y
        assert rep.abs_errors[0] == 0

    def test_exp_truncation_monotone_exact_substrate(self, gamma_model):
        batch = model_jump_fixtures(gamma_model, 0.5, 16, seed=5)
        errs = []
        for D in (2, 4, 6, 8):
            rep = eval_functional(exp_functional((0.5,), D), batch)
            errs.append(rep.mean_abs_error)
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_grid_substrate(self, gamma_model):
        paths = [simulate_grid(gamma_model, 0.5, 1e-3, seed=9, path_index=i) for i in range(3)]
        rep = eval_functional(exp_functional((0.5,), 6), paths)
        # truncation is tiny; the residual is grid discretization error
        assert 0 < rep.mean_abs_error < 0.05

    def test_report_statistics(self, gamma_model):
        batch = model_jump_fixtures(gamma_model, 0.5, 4, seed=2)
        rep = eval_functional(exp_functional((0.5,), 4), batch)
        assert len(rep.approximations) == 4
        assert rep.max_abs_error >= rep.mean_abs_error > 0


ONE_PASS_SPECS = [
    pytest.param({"kind": "exp", "grid": [0.25, 0.5], "weights": [1.0, -0.5]}, id="exp"),
    pytest.param(
        {"kind": "poly", "grid": [0.25, 0.5],
         "terms": [{"exponents": [0, 0], "coeff": 2}, {"exponents": [2, 1], "coeff": 0.5},
                   {"exponents": [0, 3], "coeff": -1.5}, {"exponents": [1, 0], "coeff": 3}]},
        id="poly",
    ),
    pytest.param({"kind": "forward", "grid": [0.25, 0.5], "s0": 100, "rate": 0.05, "maturity": 1.0}, id="forward"),
]


class TestOnePass:
    """One evaluation at D_max, truncated, equals a separate evaluation at each D."""

    D_MAX = 6

    @pytest.mark.parametrize("substrate", ["exact", "grid"])
    @pytest.mark.parametrize("data", ONE_PASS_SPECS)
    def test_truncated_equals_separate_evaluation(self, gamma_model, data, substrate):
        if substrate == "exact":
            batch = model_jump_fixtures(gamma_model, 0.5, 3, seed=4)
        else:
            batch = [simulate_grid(gamma_model, 0.5, 1e-2, seed=4, path_index=i) for i in range(3)]
        full = eval_functional(functional_from_json({**data, "order": self.D_MAX}), batch)
        for D in range(self.D_MAX + 1):
            alone = eval_functional(functional_from_json({**data, "order": D}), batch)
            cut = full.truncated(D)
            assert cut.order == D
            assert cut.approximations == alone.approximations
            assert cut.directs == alone.directs
            assert (cut.mean_abs_error, cut.max_abs_error) == (alone.mean_abs_error, alone.max_abs_error)

    @pytest.mark.parametrize("order", [-1, D_MAX + 1])
    def test_truncation_outside_the_study_rejected(self, gamma_model, order):
        batch = model_jump_fixtures(gamma_model, 0.5, 1, seed=4)
        rep = eval_functional(exp_functional((0.5,), self.D_MAX), batch)
        with pytest.raises(FunctionalError, match="truncation order"):
            rep.truncated(order)

    def test_default_cli_study_builds_levels_once_per_path_and_interval(self, tmp_path, monkeypatch):
        builds = []

        def counting(*args, **kwargs):
            builds.append(args[1])
            return power_levels(*args, **kwargs)

        power_levels = taylor._power_levels
        monkeypatch.setattr(taylor, "_power_levels", counting)
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "exp", "grid": [0.25, 0.5]}')
        argv = ["taylor", "--spec", str(spec), "--model", "gamma:a=10,b=20", "--paths", "2"]
        assert run_cli(argv + ["--out", str(tmp_path / "t.csv")]).returncode == 0
        assert builds == [8] * 4  # 2 paths x 2 intervals, each at the top order of 2,4,6,8


class TestValidation:
    def test_overlapping_intervals_rejected(self):
        with pytest.raises(FunctionalError, match="overlapping"):
            poly_functional((Fraction(1), Fraction(1, 2)), 2, {(1, 1): 1})
        with pytest.raises(FunctionalError, match="overlapping"):
            exp_functional((0.0,), 2)

    def test_arity_mismatch(self):
        with pytest.raises(FunctionalError, match="arity"):
            poly_functional((1,), 2, {(1, 1): 1})

    def test_library_has_no_order_cap(self, gamma_model):
        # the CLI bounds --orders; the library evaluates any order its fixtures declare moments for
        batch = model_jump_fixtures(gamma_model, 0.5, 1, seed=1, moment_order=20)
        assert eval_functional(exp_functional((0.5,), 20), batch).max_abs_error < 1e-12

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -1.0, 0.0])
    def test_fixture_horizon_checked_before_sampling(self, gamma_model, horizon):
        with pytest.raises(PathError, match="horizon"):
            model_jump_fixtures(gamma_model, horizon, 2, seed=1)

    def test_empty_batch(self):
        with pytest.raises(FunctionalError, match="empty"):
            eval_functional(exp_functional((1.0,), 2), [])


class TestFunctionalJson:
    def test_exp(self):
        spec = functional_from_json({"kind": "exp", "order": 4, "grid": [0.5], "scale": 2.0})
        assert spec.label == "exp" and spec.order == 4
        assert spec.value([0.0]) == pytest.approx(2.0)

    def test_poly(self):
        spec = functional_from_json(
            {"kind": "poly", "order": 3, "grid": [0.5, 1.0], "terms": [{"exponents": [1, 1], "coeff": 2}]}
        )
        assert spec.value([3, 4]) == 24

    def test_forward(self):
        spec = functional_from_json(
            {"kind": "forward", "order": 4, "grid": [1.0], "s0": 100, "rate": 0.05, "maturity": 2.0}
        )
        assert spec.label == "forward"
        assert spec.value([0.0]) == pytest.approx(100 * math.exp(0.05))

    def test_unknown_kind(self):
        with pytest.raises(FunctionalError, match="unknown functional kind"):
            functional_from_json({"kind": "barrier", "order": 2, "grid": [1.0]})
