import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from levychaos import paths
from levychaos.errors import MomentError, PathError
from levychaos.models import LevyModel, SyntheticMoments, moments, parse_model, sigma_adjust
from levychaos.paths import (
    STEP_LIMIT,
    GridPath,
    grid_csv_chunks,
    make_jump_path,
    power_increments,
    random_jump_path,
    sample_terminal_increments,
    simulate_grid,
)


class TestSimulateGrid:
    def test_pure_drift(self):
        model = LevyModel(0, 2.5)
        path = simulate_grid(model, 1.0, 0.01, seed=4)
        assert np.allclose(path.dX, 2.5 * 0.01)

    def test_gamma_mean_rate(self, gamma_model):
        path = simulate_grid(gamma_model, 100.0, 1e-4, seed=10)
        samples = path.dX / 1e-4
        se = samples.std(ddof=1) / math.sqrt(path.steps)
        assert abs(samples.mean() - 0.5) < 3 * se

    def test_determinism(self, mixed_model):
        a = simulate_grid(mixed_model, 1.0, 1e-3, seed=7, path_index=3)
        b = simulate_grid(mixed_model, 1.0, 1e-3, seed=7, path_index=3)
        assert np.array_equal(a.dX, b.dX)
        c = simulate_grid(mixed_model, 1.0, 1e-3, seed=7, path_index=4)
        assert not np.array_equal(a.dX, c.dX)

    def test_compound_poisson_mean(self):
        model = parse_model("cpoisson:lambda=3,jump=det:2")
        path = simulate_grid(model, 50.0, 1e-3, seed=8)
        total = path.dX.sum()
        # X_T ~ 2 * Poisson(3T): mean 6T, sd 2 sqrt(3T)
        assert abs(total - 6 * 50.0) < 4 * 2 * math.sqrt(3 * 50.0)

    def test_brownian_plus_drift(self):
        model = parse_model("drift:mu=1+brownian:sigma=0.5")
        path = simulate_grid(model, 20.0, 1e-3, seed=9)
        se = 0.5 * math.sqrt(20.0)
        assert abs(path.dX.sum() - 20.0) < 4 * se

    def test_validation(self, gamma_model):
        with pytest.raises(PathError, match="nonpositive dt"):
            simulate_grid(gamma_model, 1.0, 0.0)
        with pytest.raises(PathError, match="misaligned horizon"):
            simulate_grid(gamma_model, 1.0005, 0.01)
        with pytest.raises(PathError, match="synthetic"):
            simulate_grid(LevyModel.build(sigma2=1, jump_part=SyntheticMoments((1,))), 1.0, 0.01)

    def test_step_limit_refused_before_the_draw(self, gamma_model, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew before the step count was checked")

        monkeypatch.setattr(paths, "_draw_increments", refuse)
        with pytest.raises(PathError, match=f"{STEP_LIMIT + 1} grid steps exceed the limit of {STEP_LIMIT}"):
            simulate_grid(gamma_model, float(STEP_LIMIT + 1), 1.0)

    def test_cumulative_recovers_path(self, gamma_model):
        path = simulate_grid(gamma_model, 0.5, 1e-3, seed=1)
        cum = path.cumulative()
        assert cum[0] == 0.0
        assert cum[-1] == pytest.approx(path.dX.sum())


class TestPowerIncrements:
    def test_first_order(self, gamma_model):
        mv = sigma_adjust(moments(gamma_model, 2))
        path = simulate_grid(gamma_model, 0.1, 1e-3, seed=2)
        dY = power_increments(path, 1, mv)
        assert np.allclose(dY, path.dX - 0.5 * 1e-3)

    def test_unadjusted_rejected(self, gamma_model):
        path = simulate_grid(gamma_model, 0.1, 1e-3, seed=2)
        with pytest.raises(MomentError, match="unadjusted"):
            power_increments(path, 2, moments(gamma_model, 2))

    def test_brownian_quadratic_variation(self):
        model = LevyModel(1, 0)
        mv = sigma_adjust(moments(model, 2))
        path = simulate_grid(model, 1.0, 1e-4, seed=3)
        # sum (dW)^2 over [0,1] concentrates at t = 1 = adjusted m2
        assert np.sum(path.dX**2) == pytest.approx(mv.moment(2), abs=0.02)
        # compensated increments nearly cancel
        assert abs(np.sum(power_increments(path, 2, mv))) < 0.02

    def test_all_zero_increments(self):
        model = LevyModel(1, 0)
        path = GridPath(0.1, 5, np.zeros(5), 0, 0, model)
        mv = sigma_adjust(moments(model, 3))
        assert np.allclose(power_increments(path, 3, mv), -mv.moment(3) * 0.1)


class TestPowerJumpRateConvergence:
    """Per-unit-time power sums approach m_i as the step shrinks."""

    def test_coupled_lumping_excess_monotone(self, gamma_model):
        # one realization observed at dt = 1e-2 / 1e-3 / 1e-4 by coarsening:
        # lumping positive jumps only ever inflates power sums, so the excess
        # over the finest grid is positive and strictly decreasing, any seed
        fine = simulate_grid(gamma_model, 5.0, 1e-4, seed=0)
        for i in (2, 3):
            base = np.sum(fine.dX**i)
            excess = [
                np.sum(fine.dX.reshape(-1, factor).sum(axis=1) ** i) - base
                for factor in (100, 10)
            ]
            assert excess[0] > excess[1] > 0

    def test_error_against_moment_decreases(self, gamma_model):
        # literal sweep at a fixed seed (statistical regression check)
        mv = moments(gamma_model, 3)
        T = 5.0
        fine = simulate_grid(gamma_model, T, 1e-4, seed=2)
        for i in (2, 3):
            errs = [
                abs(np.sum(fine.dX.reshape(-1, factor).sum(axis=1) ** i) / T - mv.moment(i))
                for factor in (100, 10, 1)
            ]
            assert errs[0] > errs[1] > errs[2]


class TestSampleTerminalIncrements:
    def test_gamma_law(self, gamma_model):
        xs = sample_terminal_increments(gamma_model, 0.5, 50_000, seed=6)
        se = xs.std(ddof=1) / math.sqrt(len(xs))
        assert abs(xs.mean() - 0.25) < 3 * se

    def test_deterministic(self, gamma_model):
        a = sample_terminal_increments(gamma_model, 0.5, 100, seed=6)
        b = sample_terminal_increments(gamma_model, 0.5, 100, seed=6)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "spec", ["gamma:a=10,b=20", "cpoisson:lambda=30,jump=expsign:5:3/5", "drift:mu=1+brownian:sigma=0.5"]
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_stream_as_one_step_grid(self, spec, seed):
        model = parse_model(spec)
        grid = simulate_grid(model, 0.5, 0.5, seed=seed)
        assert grid.dX[0] == sample_terminal_increments(model, 0.5, 1, seed)[0]


class TestJumpPath:
    def test_zero_jump_path(self):
        path = make_jump_path(1, 0, [], (0, 0, 0))
        assert path.value(Fraction(1)) == 0

    def test_single_jump_value(self):
        path = make_jump_path(1, 0, [(Fraction(3, 10), 2)], (0, 0))
        assert path.value(Fraction(2, 10)) == 0
        assert path.value(Fraction(3, 10)) == 2
        assert path.value(1) == 2

    def test_exact_power_sums(self):
        path = make_jump_path(1, Fraction(1, 2), [(Fraction(1, 4), 2), (Fraction(3, 4), -3)], (0, 0, 0))
        jumps_i3 = sum(x**3 for _, x in path.jumps)
        assert jumps_i3 == 8 - 27

    def test_validation(self):
        with pytest.raises(PathError, match="strictly increasing"):
            make_jump_path(1, 0, [(Fraction(1, 2), 1), (Fraction(1, 2), 2)], (0,))
        with pytest.raises(PathError, match="nonzero"):
            make_jump_path(1, 0, [(Fraction(1, 2), 0)], (0,))
        with pytest.raises(PathError, match="beyond horizon"):
            make_jump_path(1, 0, [(2, 1)], (0,))
        with pytest.raises(PathError, match="strictly increasing"):
            make_jump_path(1, 0, [(0, 1)], (0,))  # jump at 0 not allowed

    def test_random_determinism(self):
        a = random_jump_path(5, 1.0, seed=7)
        b = random_jump_path(5, 1.0, seed=7)
        assert a.jumps == b.jumps and a.drift_rate == b.drift_rate

    def test_random_rational_is_exact(self):
        path = random_jump_path(6, 1, seed=11, drift_rate="random")
        assert all(isinstance(s, Fraction) and isinstance(x, Fraction) for s, x in path.jumps)
        assert isinstance(path.drift_rate, Fraction)
        assert all(isinstance(m, Fraction) for m in path.mv.m)
        assert len({s for s, _ in path.jumps}) == 6


def _grid_csv_by_rows(path):
    """The row loop grid_csv_chunks replaced: a Python running sum, one csv row per step."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "t", "dX", "X"])
    x = 0.0
    for l in range(path.steps):
        x += float(path.dX[l])
        writer.writerow([str(l + 1), repr((l + 1) * path.dt), repr(float(path.dX[l])), repr(x)])
    return buf.getvalue()


class TestExport:
    def test_grid_csv_schema(self, gamma_model):
        path = simulate_grid(gamma_model, 0.01, 1e-3, seed=1)
        rows = list(csv.reader("".join(grid_csv_chunks(path)).splitlines()))
        assert rows[0] == ["step", "t", "dX", "X"]
        assert len(rows) == 11
        assert float(rows[-1][3]) == pytest.approx(path.dX.sum())

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 1 << 16])
    def test_grid_csv_matches_the_row_loop(self, monkeypatch, chunk_rows):
        monkeypatch.setattr(paths, "CSV_CHUNK_ROWS", chunk_rows)
        model = parse_model("brownian:sigma=0.3+gamma:a=10,b=20")
        for path in [simulate_grid(model, 0.7, 0.1, seed=2), simulate_grid(model, 1.0, 1e-3, seed=3)]:
            assert "".join(grid_csv_chunks(path)) == _grid_csv_by_rows(path)

    def test_grid_csv_signed_zero_first_step(self):
        # the running sum starts at 0.0, and 0.0 + -0.0 is 0.0
        path = GridPath(0.5, 3, np.array([-0.0, -0.0, 1.5]), 0, 0, None)
        assert "".join(grid_csv_chunks(path)) == _grid_csv_by_rows(path)
        assert "".join(grid_csv_chunks(path)).splitlines()[1] == "1,0.5,-0.0,0.0"
