"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion with its runtime.
"""

import time
from fractions import Fraction

import numpy as np
from levychaos.chaos import (
    c_poly_closed,
    c_poly_recursive,
    expand_from_moments,
    jamshidian_expand,
    pi_coeff,
    terms_equal,
)
from levychaos.combinatorics import index_set
from levychaos.evaluate import (
    coarsen_grid,
    exact_identity_suite,
    product_check,
    reconstruct,
    verify_grid,
    verify_grid_sweep,
)
from levychaos.models import MomentVector, moments, parse_model, sigma_adjust
from levychaos.ortho import orthogonalize, to_h_basis
from levychaos.paths import random_jump_path, rng_for, sample_terminal_increments, simulate_grid
from levychaos.taylor import eval_functional, exp_functional, model_jump_fixtures, poly_functional

from conftest import random_rational_mv

GAMMA = parse_model("gamma:a=10,b=20")


class _Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} ({elapsed:.2f}s, budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.criterion} exceeded {self.seconds}s budget"
        return False


def test_criterion_1_exact_pathwise_identity():
    with _Budget("1 exact pathwise identity", 30):
        rational = exact_identity_suite(30, 6, seed=2024)
        assert len(rational) == 180
        assert all(r.terminal_diff == 0 for r in rational), "rational-mode terminal_diff must be exactly 0"
        floats = exact_identity_suite(30, 6, seed=2024, float_mode=True)
        for r in floats:
            # relative to the evaluation scale: the largest summed term (the
            # fixtures' random compensators produce large exactly-cancelling
            # terms, so the tiny direct value alone is not the float scale)
            scale = max(1.0, abs(r.terminal_direct), max(map(abs, r.term_norms.values()), default=0.0))
            assert abs(r.terminal_diff) <= 1e-9 * scale


def test_criterion_2_coefficient_cross_validation():
    with _Budget("2 coefficient cross-validation", 5):
        rng = rng_for(7)
        for _ in range(50):
            mv = random_rational_mv(rng, 12)
            for k in range(13):
                assert c_poly_recursive(k, mv) == c_poly_closed(k, mv)
        # verbatim anchors, via symbolic prime moments
        m1, m2, m3, m4 = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
        mv = MomentVector((m1, m2, m3, m4), Fraction(0), adjusted=True)
        assert c_poly_recursive(2, mv).coeffs == (0, m2, m1**2)
        assert c_poly_recursive(3, mv).coeffs == (0, m3, 3 * m1 * m2, m1**3)
        assert c_poly_recursive(4, mv).coeffs[2] == 4 * m1 * m3 + 3 * m2**2
        assert pi_coeff((1, 1), 4, mv) == c_poly_recursive(2, mv).scale(12)


def test_criterion_3_index_set_counts():
    with _Budget("3 index-set counts", 1):
        for k in range(1, 13):
            assert len(index_set(k)) == 2**k - 1
        assert index_set(2) == [(1,), (2,), (1, 1)]
        assert set(index_set(3)) == {(1, 1, 1), (1, 1), (1, 2), (2, 1), (1,), (2,), (3,)}
        assert set(index_set(4)) == {
            (1, 1, 1, 1), (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1),
            (1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1),
            (1,), (2,), (3,), (4,),
        }


def test_criterion_4_orthogonalization():
    with _Budget("4 orthogonalization", 10):
        N = 8
        # float mode: A.B = I to 1e-12
        of = orthogonalize(GAMMA, N)
        A = np.zeros((N, N))
        B = np.zeros((N, N))
        for i in range(N):
            A[i, : i + 1] = of.a[i]
            B[i, : i + 1] = of.b[i]
        assert np.max(np.abs(A @ B - np.eye(N))) <= 1e-12
        # rational mode: exact identity
        oe = orthogonalize(GAMMA, N, exact=True)
        for i in range(N):
            for j in range(i + 1):
                assert sum(oe.a[i][k] * oe.b[k][j] for k in range(j, i + 1)) == (1 if i == j else 0)
        # Gram-Schmidt anchor
        assert oe.a[1][0] == Fraction(-1, 10)
        # orthogonality residuals <= 1e-10 (relative to norms)
        mu = [float(x) for x in of.mu]

        def inner(p, q):
            return sum(pu * qv * mu[u + v] for u, pu in enumerate(p) for v, qv in enumerate(q))

        norms = [inner(row, row) ** 0.5 for row in of.a]
        for i in range(N):
            for j in range(i):
                assert abs(inner(of.a[i], of.a[j])) <= 1e-10 * norms[i] * norms[j]
        # H-basis reconstruction equals Y-basis reconstruction, rational, n <= 4
        for n in range(1, 5):
            mv = sigma_adjust(moments(GAMMA, max(n, 2), exact=True))
            path = random_jump_path(5, 1, seed=600 + n, moments_decl=mv.m)
            expY = expand_from_moments(n, mv)
            expH = to_h_basis(expY, orthogonalize(GAMMA, n, exact=True))
            vy = reconstruct(expY, path, Fraction(0), Fraction(1))
            vh = reconstruct(expH, path, Fraction(0), Fraction(1))
            assert vy == vh == (path.value(Fraction(1))) ** n


def test_criterion_5_jamshidian_reduction():
    with _Budget("5 Jamshidian reduction", 10):
        for n in range(1, 9):
            zero = MomentVector((Fraction(0),) * max(n, 2), Fraction(0), adjusted=True)
            assert terms_equal(expand_from_moments(n, zero), jamshidian_expand(n))
        for n in range(1, 7):
            path = random_jump_path(6, 1, seed=500 + n, moments_decl=(0,) * 6)
            val = reconstruct(jamshidian_expand(n), path, Fraction(0), Fraction(1))
            assert val == path.value(Fraction(1)) ** n


FIGURE_CONFIGS = [
    ("gamma:a=10,b=20", 4, 0.0),
    ("gamma:a=10,b=20", 9, 0.0099),
    ("brownian:sigma=0.01+gamma:a=10,b=20", 5, 0.0),
    ("brownian:sigma=0.02+gamma:a=10,b=20", 8, 0.0019),
]


def _large_jump_steps(series: np.ndarray, frac: float = 0.25) -> set:
    steps = np.abs(np.diff(series))
    return set(np.nonzero(steps > frac * steps.max())[0].tolist())


def test_criterion_6_figure_reproduction():
    with _Budget("6 figure reproduction", 120):
        for spec, n, t0 in FIGURE_CONFIGS:
            model = parse_model(spec)
            # both series jump at identical steps at the stated dt and t0
            rep = verify_grid(model, n, t0, 1.0, 1e-4, seed=1)
            assert _large_jump_steps(rep.direct) == _large_jump_steps(rep.reconstructed), spec
            # strictly decreasing discretization error on one coupled realization
            reports = verify_grid_sweep(model, n, t0, 1.0, [1e-2, 1e-3, 1e-4], seed=1)
            maxes = [r.max_abs_diff for r in reports]
            assert maxes[0] > maxes[1] > maxes[2], (spec, maxes)


def test_criterion_7_expectation_statistics():
    with _Budget("7 expectation statistics", 60):
        t0, t = 0.25, 0.75  # elapsed 0.5; increments are stationary
        xs = sample_terminal_increments(GAMMA, t - t0, 100_000, seed=99)
        mv = sigma_adjust(moments(GAMMA, 4))
        for n in range(1, 5):
            pred = c_poly_recursive(n, mv)(t - t0)
            samp = xs**n
            se = samp.std(ddof=1) / np.sqrt(len(samp))
            assert abs(samp.mean() - pred) < 3 * se, (n, samp.mean(), pred, se)


def test_criterion_8_product_identity():
    with _Budget("8 product identity", 30):
        for m in range(1, 6):
            for n in range(1, 7 - m):
                path = random_jump_path(5, 1, seed=800 + 10 * m + n, drift_rate="random")
                rep = product_check(path, m, n, Fraction(0), Fraction(1))
                assert rep.terminal_diff == 0, (m, n)
        # dt-decreasing error on one coupled Gamma realization
        fine = simulate_grid(GAMMA, 1.0, 1e-3, seed=5)
        coarse = coarsen_grid(fine, 10)
        assert product_check(coarse, 2, 2, 0.0).max_abs_diff > product_check(fine, 2, 2, 0.0).max_abs_diff


def test_criterion_9_taylor_functional():
    with _Budget("9 Taylor functional", 60):
        # polynomial of total degree d recovered exactly at D = d
        path = random_jump_path(5, 1, seed=901, drift_rate="random")
        spec = poly_functional(
            (Fraction(1, 2), Fraction(1)),
            4,
            {(2, 2): Fraction(3, 7), (1, 0): Fraction(-2, 5), (0, 3): Fraction(1, 6), (0, 0): Fraction(4)},
        )
        rep = eval_functional(spec, path)
        assert rep.abs_errors[0] == 0
        # exp truncation error strictly decreasing over D on a fixed batch
        batch = model_jump_fixtures(GAMMA, 0.5, 32, seed=902)
        errs = [eval_functional(exp_functional((0.5,), D), batch).mean_abs_error for D in (2, 4, 6, 8)]
        assert errs[0] > errs[1] > errs[2] > errs[3], errs
