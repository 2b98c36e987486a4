from fractions import Fraction

import numpy as np
import pytest

from levychaos import evaluate
from levychaos.chaos import Expansion, expand, expand_from_moments, jamshidian_expand
from levychaos.errors import EvaluationError, MomentError, PathError
from levychaos.evaluate import (
    coarsen_grid,
    eval_exact,
    eval_grid,
    exact_identity_suite,
    diff_csv_rows,
    integrators,
    product_check,
    reconstruct,
    report_to_json_dict,
    verify_exact,
    verify_grid,
    verify_grid_sweep,
    verify_on_grid_path,
)
from levychaos.models import LevyModel, MomentVector, SyntheticMoments, moments, sigma_adjust
from levychaos.ortho import orthogonalize, to_h_basis
from levychaos.paths import GridPath, make_jump_path, random_jump_path, simulate_grid
from levychaos.taylor import eval_functional, exp_functional, model_jump_fixtures

ZERO_MV6 = MomentVector((0,) * 6, 0, adjusted=True)
DUMMY_MODEL = LevyModel(0, 1)


def manual_grid(dX, dt=1.0):
    dX = np.asarray(dX, dtype=float)
    return GridPath(dt, len(dX), dX, 0, 0, DUMMY_MODEL)


def brute_iterated_grid(dX, theta, m, dt):
    """Oracle: literal nested sums over ordered step indices l1 < l2 < ... .

    Index p of theta is the innermost integrator, so the earliest index l1
    carries theta[0].
    """
    steps = len(dX)
    dY = [[dX[l] ** i - m[i - 1] * dt for l in range(steps)] for i in range(1, 7)]

    def level(r):
        if r == 0:
            return [1.0] * (steps + 1)  # value at grid point k
        inner = level(r - 1)
        out = [0.0]
        for k in range(1, steps + 1):
            out.append(out[-1] + inner[k - 1] * dY[theta[r - 1] - 1][k - 1])
        return out

    return level(len(theta))


class TestEvalGrid:
    def test_drift_only_first_order(self):
        path = manual_grid([0.3] * 10, dt=0.1)
        out = eval_grid(path, (1,), ZERO_MV6, 0.0)
        assert np.allclose(out.series, 3.0 * out.times)

    def test_riemann_limit(self):
        # deterministic dX = dt: S_(1,1)(T) -> T^2/2 as dt -> 0
        vals = []
        for dt in (1e-1, 1e-2, 1e-3):
            n = int(round(1.0 / dt))
            path = manual_grid([dt] * n, dt=dt)
            vals.append(eval_grid(path, (1, 1), ZERO_MV6, 0.0).terminal)
        errs = [abs(v - 0.5) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert vals[-1] == pytest.approx(0.5, rel=1e-2)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        dX = rng.normal(0.1, 0.4, size=9)
        m = [0.2, -0.1, 0.05, 0.3, 0.0, 0.1]
        mv = MomentVector(tuple(m), 0.0, adjusted=True)
        path = manual_grid(dX, dt=0.25)
        for theta in [(1,), (2,), (1, 1), (1, 2), (2, 1), (3, 1, 2)]:
            got = eval_grid(path, theta, mv, 0.0).series
            want = brute_iterated_grid(dX, theta, m, 0.25)
            assert np.allclose(got, want)

    def test_orientation_asymmetric(self):
        # two unequal jumps: (1,2) pairs the square with the LATER jump
        path = manual_grid([2.0, 0.0, 3.0], dt=1.0)
        v12 = eval_grid(path, (1, 2), ZERO_MV6, 0.0).terminal
        v21 = eval_grid(path, (2, 1), ZERO_MV6, 0.0).terminal
        assert v12 == pytest.approx(2.0 * 9.0)
        assert v21 == pytest.approx(4.0 * 3.0)
        assert v12 != v21

    def test_t0_offset(self):
        path = manual_grid([1.0, 2.0, 4.0], dt=1.0)
        out = eval_grid(path, (1,), ZERO_MV6, 1.0)
        assert np.allclose(out.series, [0.0, 2.0, 6.0])
        assert out.times[0] == 1.0

    def test_errors(self):
        path = manual_grid([1.0, 1.0], dt=0.5)
        with pytest.raises(EvaluationError, match="nonempty"):
            eval_grid(path, (), ZERO_MV6, 0.0)
        with pytest.raises(PathError, match="misaligned"):
            eval_grid(path, (1,), ZERO_MV6, 0.3)
        with pytest.raises(MomentError, match="unadjusted"):
            eval_grid(path, (1,), MomentVector((0.0,), 0.0), 0.0)


class TestEvalExact:
    def test_single_jump_powers(self):
        path = make_jump_path(1, 0, [(Fraction(3, 10), Fraction(2))], (0,) * 6)
        for i in range(1, 5):
            assert eval_exact(path, (i,), Fraction(0), Fraction(1)) == Fraction(2) ** i
        # any length >= 2 needs two ordered jumps
        assert eval_exact(path, (1, 1), Fraction(0), Fraction(1)) == 0
        assert eval_exact(path, (2, 3), Fraction(0), Fraction(1)) == 0

    def test_two_jump_product(self):
        x, y = Fraction(2, 3), Fraction(-5, 4)
        path = make_jump_path(1, 0, [(Fraction(1, 4), x), (Fraction(2, 4), y)], (0,) * 6)
        for i1, i2 in [(1, 1), (1, 2), (2, 1), (3, 2)]:
            # earliest jump carries the innermost index i1
            assert eval_exact(path, (i1, i2), Fraction(0), Fraction(1)) == x**i1 * y**i2

    def test_pure_drift_iterated(self):
        g = Fraction(3, 7)
        path = make_jump_path(2, g, [], (0,) * 4)
        t0, t = Fraction(1, 2), Fraction(3, 2)
        assert eval_exact(path, (1,), t0, t) == g * (t - t0)
        assert eval_exact(path, (1, 1), t0, t) == g**2 * (t - t0) ** 2 / 2
        assert eval_exact(path, (1, 1, 1), t0, t) == g**3 * (t - t0) ** 3 / 6

    def test_compensator_drift(self):
        # no jumps, no path drift: dY^(2) = -m2 dt integrates to -m2 (t - t0)
        mv = (Fraction(0), Fraction(3, 5))
        path = make_jump_path(1, 0, [], mv)
        assert eval_exact(path, (2,), Fraction(0), Fraction(1)) == -Fraction(3, 5)

    def test_jump_at_window_edges(self):
        path = make_jump_path(1, 0, [(Fraction(1, 4), 2), (Fraction(1, 2), 3)], (0,) * 3)
        # jump exactly at t0 excluded, jump exactly at t included
        assert eval_exact(path, (1,), Fraction(1, 4), Fraction(1, 2)) == 3
        assert eval_exact(path, (1,), Fraction(0), Fraction(1, 4)) == 2

    def test_errors(self):
        path = make_jump_path(1, 0, [(Fraction(1, 2), 1)], (0,))
        with pytest.raises(EvaluationError, match="t0 >= t"):
            eval_exact(path, (1,), Fraction(1), Fraction(1))
        with pytest.raises(PathError, match="beyond horizon"):
            eval_exact(path, (1,), Fraction(0), Fraction(2))
        with pytest.raises(EvaluationError, match="nonempty"):
            eval_exact(path, (), Fraction(0), Fraction(1))


class TestReconstruct:
    def test_first_power_telescopes_on_grid(self, gamma_model):
        path = simulate_grid(gamma_model, 0.2, 1e-3, seed=21)
        series = reconstruct(expand(1, gamma_model), path, 0.05)
        i0 = 50
        direct = np.concatenate([[0.0], np.cumsum(path.dX[i0:])])
        assert np.allclose(series.values, direct, atol=1e-12)

    def test_two_jump_binomial(self):
        x, y = Fraction(1, 2), Fraction(2, 5)
        path = make_jump_path(1, 0, [(Fraction(1, 3), x), (Fraction(2, 3), y)], (0,) * 6)
        exp3 = expand_from_moments(3, ZERO_MV6)
        val = reconstruct(exp3, path, Fraction(0), Fraction(1))
        assert val == (x + y) ** 3
        assert val == x**3 + y**3 + 3 * x**2 * y + 3 * x * y**2

    def test_grid_convergence(self, gamma_model):
        maxes = [
            verify_grid(gamma_model, 2, 0.0, 1.0, dt, seed=3).max_abs_diff
            for dt in (1e-2, 1e-3, 1e-4)
        ]
        assert maxes[0] > maxes[1] > maxes[2]

    def test_basis_substrate_mismatch(self, gamma_model):
        path = simulate_grid(gamma_model, 0.1, 1e-2, seed=1)
        expH = to_h_basis(expand(2, gamma_model), orthogonalize(gamma_model, 2))
        with pytest.raises(EvaluationError, match="mismatch"):
            reconstruct(expH, path, 0.0)

    def test_exact_needs_end_time(self):
        path = make_jump_path(1, 0, [], (0, 0))
        with pytest.raises(EvaluationError, match="end time"):
            reconstruct(expand_from_moments(2, ZERO_MV6), path, Fraction(0))


class TestOrientationLock:
    def test_rerouting_asymmetric_term_breaks_identity(self):
        # Note the coefficients of (1,2) and (2,1) are EQUAL (multinomial
        # symmetry), so literally swapping them is a no-op; the orientation
        # bites when a term's mass evaluates against the opposite-order
        # integral.  Reroute (1,2)'s coefficient onto (2,1) and require the
        # identity to fail on a 2-jump fixture with unequal jumps.
        rng_mv = MomentVector((Fraction(1, 3), Fraction(2, 7), Fraction(1, 5)), Fraction(0), adjusted=True)
        path = make_jump_path(1, Fraction(1, 4), [(Fraction(1, 3), Fraction(2)), (Fraction(2, 3), Fraction(1, 2))], rng_mv.m)
        exp = expand_from_moments(3, rng_mv)
        assert verify_exact(path, 3, Fraction(0), Fraction(1)).terminal_diff == 0
        terms = dict(exp.terms)
        terms[(2, 1)] = terms[(2, 1)] + terms[(1, 2)]
        terms[(1, 2)] = terms[(1, 2)].scale(0)
        mutated = Expansion(3, "Y", terms, exp.constant, exp.moments)
        direct = (path.value(Fraction(1)) - path.value(Fraction(0))) ** 3
        assert reconstruct(mutated, path, Fraction(0), Fraction(1)) != direct

    def test_opposite_orientations_evaluate_differently(self):
        # the value convention itself: the earliest jump carries the first index
        x, y = Fraction(2), Fraction(1, 2)
        path = make_jump_path(1, 0, [(Fraction(1, 3), x), (Fraction(2, 3), y)], (0,) * 4)
        assert eval_exact(path, (1, 2), 0, 1) == x * y**2
        assert eval_exact(path, (2, 1), 0, 1) == x**2 * y
        assert eval_exact(path, (1, 2), 0, 1) != eval_exact(path, (2, 1), 0, 1)


class TestVerify:
    def test_exact_identity_fixtures(self):
        reports = exact_identity_suite(10, 4, seed=17)
        assert len(reports) == 40
        assert all(r.terminal_diff == 0 for r in reports)

    def test_float_mode_relative(self):
        for r in exact_identity_suite(6, 4, seed=23, float_mode=True):
            scale = max(1.0, abs(r.terminal_direct))
            assert abs(r.terminal_diff) <= 1e-9 * scale

    def test_n0_trivial(self, gamma_model):
        path = make_jump_path(1, Fraction(1, 2), [(Fraction(1, 2), 1)], (0, 0))
        assert verify_exact(path, 0, Fraction(0), Fraction(1)).terminal_diff == 0
        rep = verify_grid(gamma_model, 0, 0.0, 0.05, 1e-2, seed=1)
        assert rep.max_abs_diff == 0.0

    @pytest.mark.parametrize("dt", [1e-3, 0.37, 2.0])
    def test_zero_moment_grid_levels_are_exact_powers(self, dt):
        # With every m_i = 0 the level recursion is the discrete binomial identity,
        # so V_n = (X_t - X_t0)^n on any grid; small-integer steps keep float64 exact.
        model = LevyModel(0, 0, SyntheticMoments((0,) * 10))
        dX = np.random.default_rng(5).integers(-2, 3, size=30).astype(float)
        path = GridPath(dt, len(dX), dX, 0, 0, model)
        for t0 in (0.0, 7 * dt):
            for n in range(1, 9):
                assert verify_on_grid_path(path, n, t0).max_abs_diff == 0.0

    def test_grid_report_fields(self, gamma_model):
        rep = verify_grid(gamma_model, 2, 0.05, 0.2, 1e-2, seed=5)
        assert rep.times[0] == pytest.approx(0.05)
        assert rep.diff.shape == rep.direct.shape == rep.reconstructed.shape
        assert rep.max_abs_diff >= abs(rep.terminal_diff) * 0  # both recorded
        data = report_to_json_dict(rep)
        assert data["substrate"] == "grid" and "term_norms" in data
        rows = diff_csv_rows(rep)
        assert rows[0] == ["step", "t", "direct", "reconstructed", "diff"]
        assert len(rows) == len(rep.times) + 1

    @pytest.mark.parametrize("t0,match", [(0.0099, "misaligned t0"), (-0.05, "outside the grid")])
    def test_bad_t0_fails_before_the_path_is_drawn(self, gamma_model, monkeypatch, t0, match):
        def no_draw(*args, **kwargs):
            raise AssertionError("path drawn for a bad t0")

        monkeypatch.setattr(evaluate, "simulate_grid", no_draw)
        with pytest.raises(PathError, match=match):
            verify_grid(gamma_model, 2, t0, 1.0, 1e-2)

    def test_negative_t0_is_refused_on_a_given_path(self, gamma_model):
        # a negative start index must not slice dX from the end
        path = simulate_grid(gamma_model, 0.1, 1e-2, seed=1)
        with pytest.raises(PathError, match="window"):
            verify_on_grid_path(path, 2, -0.05)
        with pytest.raises(PathError, match="outside the grid"):
            reconstruct(expand(2, gamma_model), path, -0.05)

    def test_diff_csv_requires_grid(self):
        path = make_jump_path(1, 0, [(Fraction(1, 2), 2)], (0, 0))
        rep = verify_exact(path, 2, Fraction(0), Fraction(1))
        with pytest.raises(EvaluationError, match="grid"):
            diff_csv_rows(rep)


class TestHBasisEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reconstruction_matches(self, gamma_model, n):
        mv = sigma_adjust(moments(gamma_model, max(n, 2), exact=True))
        path = random_jump_path(4, 1, seed=31 + n, moments_decl=mv.m)
        expY = expand_from_moments(n, mv)
        expH = to_h_basis(expY, orthogonalize(gamma_model, max(n, 1), exact=True))
        vy = reconstruct(expY, path, Fraction(0), Fraction(1))
        vh = reconstruct(expH, path, Fraction(0), Fraction(1))
        assert vy == vh
        direct = (path.value(Fraction(1)) - path.value(Fraction(0))) ** n
        assert vy == direct


class TestJamshidianPathwise:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_power_identity_zero_drift(self, n):
        path = random_jump_path(5, 1, seed=47, moments_decl=(0,) * 6)
        val = reconstruct(jamshidian_expand(n), path, Fraction(0), Fraction(1))
        assert val == path.value(Fraction(1)) ** n

    def test_bracket_family_ignores_compensators(self):
        path = make_jump_path(1, 0, [(Fraction(1, 2), Fraction(3))], (Fraction(1), Fraction(2)))
        drift, jump = integrators(path, compensated=False)
        assert drift(1) == 0 and drift(2) == 0
        assert jump(2, Fraction(3)) == 9

    @pytest.mark.parametrize("n", range(1, 6))
    def test_power_identity_with_declared_compensators(self, n):
        # The brackets never read the compensators, so nonzero declared
        # moments must leave the non-compensated identity untouched.
        path = random_jump_path(4, 1, seed=61, drift_rate="random", moment_order=6)
        assert any(m != 0 for m in path.mv.m)
        t0 = Fraction(1, 8)
        val = reconstruct(jamshidian_expand(n), path, t0, Fraction(1))
        assert val == (path.value(Fraction(1)) - path.value(t0)) ** n


class TestProductIdentity:
    def test_exact_first_powers(self):
        path = random_jump_path(3, 1, seed=53)
        rep = product_check(path, 1, 1, Fraction(0), Fraction(1))
        assert rep.terminal_diff == 0

    def test_exact_two_one(self):
        x, y = Fraction(1, 2), Fraction(3, 4)
        path = make_jump_path(1, 0, [(Fraction(1, 3), x), (Fraction(2, 3), y)], (0,) * 6)
        rep = product_check(path, 2, 1, Fraction(0), Fraction(1))
        assert rep.terminal_diff == 0  # both sides equal (x+y)^3

    def test_grid_sweep_decreasing(self, gamma_model):
        fine = simulate_grid(gamma_model, 1.0, 1e-3, seed=8)
        m_coarse = product_check(coarsen_grid(fine, 10), 2, 2, 0.0).max_abs_diff
        m_fine = product_check(fine, 2, 2, 0.0).max_abs_diff
        assert m_coarse > m_fine


class TestCoupledSweep:
    def test_coarsen_preserves_totals(self, gamma_model):
        fine = simulate_grid(gamma_model, 0.5, 1e-3, seed=13)
        coarse = coarsen_grid(fine, 10)
        assert coarse.steps == 50 and coarse.dt == pytest.approx(1e-2)
        assert coarse.dX.sum() == pytest.approx(fine.dX.sum())

    def test_coarsen_validation(self, gamma_model):
        fine = simulate_grid(gamma_model, 0.5, 1e-3, seed=13)
        with pytest.raises(PathError, match="coarsen"):
            coarsen_grid(fine, 7)

    def test_sweep_snaps_t0_and_decreases(self, gamma_model):
        reports = verify_grid_sweep(gamma_model, 4, 0.0099, 1.0, [1e-2, 1e-3, 1e-4], seed=4)
        assert [r.t0 for r in reports] == pytest.approx([0.01, 0.01, 0.0099])
        maxes = [r.max_abs_diff for r in reports]
        assert maxes[0] > maxes[1] > maxes[2]

    def test_sweep_requires_multiples(self, gamma_model):
        with pytest.raises(PathError, match="multiple"):
            verify_grid_sweep(gamma_model, 2, 0.0, 0.5, [2.5e-3, 1e-3], seed=1)


class TestLevelEngineRouting:
    def test_checks_never_walk_tuple_chains(self, gamma_model, monkeypatch):
        import levychaos.chaos
        import levychaos.combinatorics
        import levychaos.evaluate

        def forbidden(*args, **kwargs):
            raise AssertionError("per-tuple evaluation reached")

        for module, name in [
            (levychaos.evaluate, "eval_grid"),
            (levychaos.evaluate, "eval_exact"),
            (levychaos.combinatorics, "index_set"),
            (levychaos.chaos, "expand"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        path = random_jump_path(4, 1, seed=71, drift_rate="random")
        assert verify_exact(path, 5, Fraction(0), Fraction(1)).terminal_diff == 0
        assert product_check(path, 2, 3, Fraction(1, 4), Fraction(1)).terminal_diff == 0
        assert verify_grid(gamma_model, 4, 0.0, 0.1, 1e-2, seed=2).max_abs_diff < 1e-2
        assert product_check(simulate_grid(gamma_model, 0.1, 1e-2, seed=2), 1, 2, 0.0).max_abs_diff < 1e-2
        spec = exp_functional((0.25, 0.5), 4)
        assert eval_functional(spec, model_jump_fixtures(gamma_model, 0.5, 2, seed=3)).max_abs_error < 1e-2
        assert eval_functional(spec, simulate_grid(gamma_model, 0.5, 1e-2, seed=3)).max_abs_error < 1e-1

    def test_term_norms_are_per_level(self, gamma_model):
        rep = verify_grid(gamma_model, 3, 0.0, 0.1, 1e-2, seed=5)
        assert list(rep.term_norms) == [1, 2, 3]
        assert list(report_to_json_dict(rep)["term_norms"]) == ["1", "2", "3"]
        assert verify_grid(gamma_model, 0, 0.0, 0.1, 1e-2, seed=5).term_norms == {}

    def test_identity_suite_builds_levels_once_per_fixture(self, monkeypatch):
        import levychaos.evaluate

        builds = []
        real = levychaos.evaluate._power_levels

        def counting(path, n, *args, **kwargs):
            builds.append(n)
            return real(path, n, *args, **kwargs)

        monkeypatch.setattr(levychaos.evaluate, "_power_levels", counting)
        reports = exact_identity_suite(5, 6, seed=3)
        assert builds == [6] * 5
        assert [r.n for r in reports] == list(range(1, 7)) * 5
        assert all(r.terminal_diff == 0 for r in reports)

    @pytest.mark.parametrize(
        "count,n_max,max_jumps,error",
        [(0, 3, 8, EvaluationError), (3, 0, 8, EvaluationError),
         (1, 3, -1, PathError), (1, 3, 1100, PathError), (1, 3, 10**6, PathError)],
    )
    def test_identity_suite_rejects_empty_or_out_of_range_runs(self, count, n_max, max_jumps, error):
        with pytest.raises(error):
            exact_identity_suite(count, n_max, seed=0, max_jumps=max_jumps)

    def test_identity_suite_bounds_count_times_jumps_before_any_draw(self, monkeypatch):
        def drawn(*args):
            raise AssertionError("drawn")

        monkeypatch.setattr(evaluate, "rng_for", drawn)
        with pytest.raises(AssertionError, match="drawn"):  # a full batch at the default max_jumps passes
            exact_identity_suite(1000, 12, seed=0)
        with pytest.raises(PathError, match="jumps in all"):
            exact_identity_suite(1000, 12, seed=0, max_jumps=9)

    def test_level_engine_has_no_order_cap(self):
        # the engine builds n levels and lists no tuples, so only the CLI bounds n
        path = make_jump_path(1, Fraction(1, 3), [(Fraction(1, 2), 1)], (Fraction(1, 5),) * 20)
        assert verify_exact(path, 20, Fraction(0), Fraction(1)).terminal_diff == 0
        assert product_check(path, 9, 11, Fraction(0), Fraction(1)).terminal_diff == 0
