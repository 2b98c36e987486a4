"""Evaluate iterated stochastic integrals and verify reconstructions.

Two substrates:

* grid — a recursive left-endpoint scheme over Monte Carlo increments; the
  integrand at step l is the inner integral's value at the previous grid
  point, the discrete analogue of the strict-past limits (midpoint/trapezoid
  rules would break predictability and bias compensated integrals);
* exact — finite-jump paths where every level is a piecewise polynomial in
  time: drift parts integrate by exact antiderivative, jump parts use the
  inner process's left limit.  In rational arithmetic the representation
  identity is checked to literal zero.

Throughout, ``t`` is the absolute end time of the window [t0, t]; expansion
coefficients are evaluated at elapsed time t - t0.  The first entry of an
index tuple always drives the innermost (earliest-time) integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .chaos import Expansion, c_polys, scalar_to_json
from .errors import EvaluationError, OrderError, PathError
from .models import LevyModel, model_label, moments, sigma_adjust
from .paths import GridPath, JumpPath, grid_index, power_increments, random_jump_path, rng_for
from .paths import RATIONAL_TICKS, check_batch, simulate_grid
from .timepoly import TimePolynomial

# --------------------------------------------------------------------------
# grid substrate
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IteratedIntegralValue:
    theta: tuple
    t0: float
    times: np.ndarray
    series: np.ndarray

    @property
    def terminal(self) -> float:
        return float(self.series[-1])


def _grid_times(path: GridPath, t0: float) -> np.ndarray:
    """Absolute times of the grid points from t0 to the end of the path."""
    return t0 + path.dt * np.arange(path.steps - grid_index(t0, path.dt) + 1)


def eval_grid(path: GridPath, theta, mv_adjusted, t0: float) -> IteratedIntegralValue:
    """Iterated integral series on the grid, started at t0.

    Level r accumulates I_r(t_k) = sum_{l<=k} I_{r-1}(t_{l-1}) * dY^(theta_r)_l
    with theta's first entry innermost.
    """
    theta = tuple(theta)
    if not theta:
        raise EvaluationError("theta must be nonempty")
    i0 = grid_index(t0, path.dt)
    if not 0 <= i0 < path.steps:  # a negative index would slice from the end
        raise PathError(f"t0={t0} outside the grid")
    M = path.steps - i0
    cur = np.ones(M + 1)
    for ip in theta:
        dY = power_increments(path, ip, mv_adjusted)[i0:]
        nxt = np.empty(M + 1)
        nxt[0] = 0.0
        np.cumsum(cur[:M] * dY, out=nxt[1:])
        cur = nxt
    return IteratedIntegralValue(theta, float(t0), _grid_times(path, t0), cur)


# --------------------------------------------------------------------------
# exact substrate
# --------------------------------------------------------------------------

DriftFn = Callable[[int], object]
JumpFn = Callable[[int, object], object]


def integrators(path: JumpPath, a=None, *, compensated: bool = True) -> tuple[DriftFn, JumpFn]:
    """Drift rate and jump contribution of the i-th integrator on a jump path.

    The integrators are the compensated power jump processes Y^(i): between
    jumps dY^(i) drifts at gamma*[i=1] - m_i, and a jump of size x adds x^i.
    With ``compensated`` False the m_i are dropped, which gives the power
    brackets of the non-compensated expansion.  A lower-triangular ``a``
    (the orthogonalization a-array) maps them to dH^(i) = sum_j a_{i,j} dY^(j).
    """

    def y_drift(i: int):
        base = path.drift_rate if i == 1 else 0
        return base - path.mv.moment(i) if compensated else base

    def y_jump(i: int, x):
        return x**i

    if a is None:
        return y_drift, y_jump

    def through_a(y):
        def h(i: int, *x):
            acc = 0
            for j in range(1, i + 1):
                acc = acc + a[i - 1][j - 1] * y(j, *x)
            return acc

        return h

    return through_a(y_drift), through_a(y_jump)


def _segments(path: JumpPath, t0, t) -> tuple[list, list]:
    """Segment ends t0 < ... <= t of (t0, t], and the jumps closing the first segments."""
    if t is None:
        raise EvaluationError("exact reconstruction needs an end time t")
    if t0 >= t:
        raise EvaluationError(f"t0 >= t: [{t0}, {t}] is empty")
    if t > path.horizon:
        raise PathError(f"t={t} beyond horizon {path.horizon}")
    events = [(s, x) for s, x in path.jumps if t0 < s <= t]
    ends = [t0] + [s for s, _ in events]
    if not events or events[-1][0] != t:
        ends.append(t)
    return ends, [x for _, x in events]


def _integrate(ends: list, sizes: list, integrands: list, family: tuple[DriftFn, JumpFn]) -> tuple[list, object]:
    """sum_k w_k * int_(t0, u] P_k(v-) dZ^(i_k)(v) for ``integrands`` (w_k, i_k, P_k).

    Each P_k is an inner level, one polynomial per segment.  Returns the new
    level's per-segment polynomials and its value at t.
    """
    drift, jump = family
    polys, val = [], 0
    for k in range(len(ends) - 1):
        rate = sum((inner[k].scale(w * drift(i)) for w, i, inner in integrands), TimePolynomial.zero())
        anti = rate.antiderivative()
        piece = anti + TimePolynomial.constant(val - anti(ends[k]))
        polys.append(piece)
        end = ends[k + 1]
        val = piece(end)
        if k < len(sizes):
            val = val + sum(w * jump(i, sizes[k]) * inner[k](end) for w, i, inner in integrands)
    return polys, val


def eval_exact(path: JumpPath, theta, t0, t, *, family=None):
    """Exact terminal value of the iterated integral over (t0, t].

    ``family`` is a (drift, jump) pair from :func:`integrators`, by default
    the Y integrators.  Every level is a piecewise polynomial; no
    discretization error.
    """
    theta = tuple(theta)
    if not theta:
        raise EvaluationError("theta must be nonempty")
    ends, sizes = _segments(path, t0, t)
    family = family if family is not None else integrators(path)
    level, val = [TimePolynomial((1,))] * (len(ends) - 1), 0
    for ip in theta:
        level, val = _integrate(ends, sizes, [(1, ip, level)], family)
    return val


# --------------------------------------------------------------------------
# reconstruction
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridSeries:
    times: np.ndarray
    values: np.ndarray


def reconstruct(exp: Expansion, path, t0, t=None):
    """Rebuild (X_t - X_{t0})^n from an expansion, one iterated integral per term.

    The general evaluator (any basis the substrate supports) and the oracle
    for the level engine.  Grid paths return a :class:`GridSeries` (Y basis
    only); jump paths return the exact scalar at ``t``.
    """
    if isinstance(path, GridPath):
        if exp.basis != "Y":
            raise EvaluationError(f"basis/substrate mismatch: grid substrate supports the Y basis, got {exp.basis}")
        t0, exp = float(t0), exp.to_float()  # grid integrals run in doubles
        times = _grid_times(path, t0)
        elapsed = times - t0
        integral = lambda theta: eval_grid(path, theta, exp.moments, t0).series
    elif isinstance(path, JumpPath):
        if t is None:
            raise EvaluationError("exact reconstruction needs an end time t")
        if exp.basis not in ("Y", "H", "NONCOMPENSATED"):
            raise EvaluationError(f"basis/substrate mismatch: cannot evaluate basis {exp.basis} on a jump path")
        if exp.basis == "H" and exp.ortho is None:
            raise EvaluationError("H-basis expansion lacks orthogonalization data")
        a = exp.ortho.a if exp.basis == "H" else None
        family = integrators(path, a, compensated=exp.basis != "NONCOMPENSATED")
        elapsed = t - t0
        integral = lambda theta: eval_exact(path, theta, t0, t, family=family)
    else:
        raise EvaluationError(f"unknown path substrate {type(path).__name__}")

    value = exp.constant(elapsed)
    for theta, poly in exp.terms.items():
        if not poly.is_zero():
            value = value + poly(elapsed) * integral(theta)
    return GridSeries(times, value) if isinstance(path, GridPath) else value


def _sup(v):
    """Sup norm of a grid series; absolute value of an exact scalar."""
    return float(np.max(np.abs(v))) if isinstance(v, np.ndarray) else abs(v)


def _end(v):
    """Value at the window's end: a grid series' last point, or the scalar."""
    return float(v[-1]) if isinstance(v, np.ndarray) else v


def _power_levels(path, n: int, t0, t=None) -> Callable[[int], tuple]:
    """power(e) -> (value, norms): the reconstructed (X_t - X_{t0})^e, any e <= n.

    As Pi_theta = C(e, s) * multinomial(theta) * C^(e-s) with s = sum(theta),
    the expansion is sum_s C(e, s) * C^(e-s)(t - t0) * V_s with V_0 = 1 and
    V_s = sum_{i<=s} C(s, i) * int V_{s-i}(u-) dY^(i)(u): integer weights, so
    exact paths stay exact.  Values are series over the grid points t0..t
    (t defaults to the end) or scalars at t; norms[s] is level s's sup norm.
    Only the levels are kept; each power's terms are formed when asked for.
    """
    if isinstance(path, GridPath):
        t0 = float(t0)
        mv = sigma_adjust(moments(path.model, max(n, 2)))
        i0 = grid_index(t0, path.dt)
        i1 = path.steps if t is None else grid_index(float(t), path.dt, "t")
        if not 0 <= i0 < i1 <= path.steps:
            raise PathError(f"window [{t0}, {t}] is empty or beyond the grid")
        elapsed = _grid_times(path, t0)[: i1 - i0 + 1] - t0
        dY = {i: power_increments(path, i, mv)[i0:i1] for i in range(1, n + 1)}
        levels = [np.ones(i1 - i0 + 1)]
        for s in range(1, n + 1):
            acc = sum(math.comb(s, i) * levels[s - i][:-1] * dY[i] for i in range(1, s + 1))
            levels.append(np.concatenate(([0.0], np.cumsum(acc))))
    elif isinstance(path, JumpPath):
        mv, (ends, sizes), elapsed = path.mv, _segments(path, t0, t), t - t0
        steps = [([TimePolynomial((1,))] * (len(ends) - 1), 1)]
        for s in range(1, n + 1):
            integrands = [(math.comb(s, i), i, steps[s - i][0]) for i in range(1, s + 1)]
            steps.append(_integrate(ends, sizes, integrands, integrators(path)))
        levels = [val for _, val in steps]
    else:
        raise EvaluationError(f"unknown path substrate {type(path).__name__}")

    c = c_polys(n, mv)

    def power(e: int) -> tuple:
        if not 0 <= e <= n:
            raise OrderError(f"power {e} outside the levels 0..{n}")
        terms = [math.comb(e, s) * c[e - s](elapsed) * levels[s] for s in range(e + 1)]
        return sum(terms[1:], terms[0]), {s: _sup(terms[s]) for s in range(1, e + 1)}

    return power


# --------------------------------------------------------------------------
# verification reports
# --------------------------------------------------------------------------


@dataclass(eq=False)
class VerificationReport:
    n: int
    t0: object
    t: object
    substrate: str
    provenance: str
    max_abs_diff: object
    terminal_diff: object
    terminal_direct: object
    term_norms: dict
    times: Optional[np.ndarray] = None
    direct: Optional[np.ndarray] = None
    reconstructed: Optional[np.ndarray] = None
    diff: Optional[np.ndarray] = None


def _verification(power, path, n: int, t0, t, direct, provenance: str) -> VerificationReport:
    """Report comparing a direct power with its level-sum reconstruction ``power(n)``."""
    recon, norms = power(n)
    diff = recon - direct
    grid = isinstance(path, GridPath)
    series = (_grid_times(path, t0), direct, recon, diff) if grid else ()
    substrate = "grid" if grid else "exact"
    return VerificationReport(n, t0, t, substrate, provenance, _sup(diff), _end(diff), _end(direct), norms, *series)


def verify_on_grid_path(path: GridPath, n: int, t0: float) -> VerificationReport:
    """Compare the direct power series with its reconstruction on one path."""
    power = _power_levels(path, n, t0, path.horizon)  # validates the window before dX is sliced
    x_rel = np.concatenate(([0.0], np.cumsum(path.dX[grid_index(t0, path.dt):])))
    provenance = f"{model_label(path.model)} dt={path.dt} seed={path.seed}/{path.path_index}"
    return _verification(power, path, n, t0, path.horizon, x_rel**n, provenance)


def verify_grid(model: LevyModel, n: int, t0: float, t: float, dt: float, seed: int = 0) -> VerificationReport:
    """Simulate one path and compare the direct power with its reconstruction."""
    if t0 >= t:
        raise EvaluationError(f"t0 >= t: [{t0}, {t}] is empty")
    if dt > 0 and grid_index(t0, dt) < 0:  # fail before the path is drawn; simulate_grid checks dt
        raise PathError(f"t0={t0} outside the grid [0, {t})")
    path = simulate_grid(model, t, dt, seed)
    return verify_on_grid_path(path, n, t0)


def coarsen_grid(path: GridPath, factor: int) -> GridPath:
    """The same realization observed on a grid ``factor`` times coarser."""
    if factor < 1 or path.steps % factor:
        step, horizon = path.dt * factor, path.dt * path.steps
        raise PathError(f"cannot coarsen: step {step:g} does not divide the horizon {horizon:g}")
    if factor == 1:
        return path
    dX = path.dX.reshape(-1, factor).sum(axis=1)
    return GridPath(path.dt * factor, path.steps // factor, dX, path.seed, path.path_index, path.model)


def verify_grid_sweep(
    model: LevyModel, n: int, t0: float, t: float, dts: list, seed: int = 0
) -> list[VerificationReport]:
    """Verification across step sizes on one coupled realization.

    The path is simulated once at the finest step and coarsened onto the other
    grids, so the sweep isolates discretization error from path-to-path
    variation.  t0 is snapped onto each grid (the stated figure t0 values only
    sit on the finest one); the snapped value lands in each report.
    """
    if not all(math.isfinite(x) for x in (t0, *dts)):
        raise PathError(f"non-finite t0 or step in the sweep: t0={t0}, dts={dts}")
    dt_fine = min(dts)
    fine = simulate_grid(model, t, dt_fine, seed)
    reports = []
    for dt in dts:
        factor = round(dt / dt_fine)
        if abs(factor * dt_fine - dt) > 1e-9 * dt:
            raise PathError(f"dt {dt} is not a multiple of the finest step {dt_fine}")
        t0_dt = round(t0 / dt) * dt
        reports.append(verify_on_grid_path(coarsen_grid(fine, factor), n, t0_dt))
    return reports


def verify_exact(path: JumpPath, n: int, t0, t, *, float_mode: bool = False) -> VerificationReport:
    """Check the representation identity on an exact jump path.

    In rational mode the terminal difference is an exact scalar (zero when the
    identity holds); float mode evaluates the same algebra in doubles.
    """
    return _exact_reports(path, [n], t0, t, float_mode=float_mode)[0]


def _exact_reports(path: JumpPath, ns, t0, t, *, float_mode: bool) -> list[VerificationReport]:
    """:func:`verify_exact` for every order in ``ns``, from one level build."""
    p = path.to_float() if float_mode else path
    if float_mode:
        t0, t = float(t0), float(t)
    power = _power_levels(p, max(ns), t0, t)
    increment = p.value(t) - p.value(t0)
    provenance = f"jumps={len(p.jumps)} drift={p.drift_rate} float={float_mode}"
    return [_verification(power, p, n, t0, t, increment**n, provenance) for n in ns]


@dataclass(eq=False)
class ProductCheckReport:
    m: int
    n: int
    substrate: str
    max_abs_diff: object
    terminal_diff: object


def product_check(path, m: int, n: int, t0, t=None) -> ProductCheckReport:
    """Check reconstruct(m) * reconstruct(n) == reconstruct(m+n) on one path."""
    power = _power_levels(path, m + n, t0, t)
    diff = power(m)[0] * power(n)[0] - power(m + n)[0]
    return ProductCheckReport(m, n, "grid" if isinstance(path, GridPath) else "exact", _sup(diff), _end(diff))


# --------------------------------------------------------------------------
# fixture suite shared by the CLI and the acceptance tests
# --------------------------------------------------------------------------

# Most jumps one suite may allow in all, count x max_jumps, checked before any
# fixture is drawn.  A fixture's cost grows with its jumps, so PATH_LIMIT and
# RATIONAL_TICKS alone would admit 1000 fixtures of up to 1024 jumps (about 40
# minutes, extrapolated).  At this limit, on a 2-CPU Xeon, `exact-verify --n 12`
# takes about 37 s and 56 MB with `--count 1000` at the default `--max-jumps 8`,
# and 20 s and 47 MB with `--count 8 --max-jumps 1000`.
SUITE_JUMP_LIMIT = 8000


def exact_identity_suite(
    count: int,
    n_max: int,
    seed: int,
    *,
    max_jumps: int = 8,
    float_mode: bool = False,
) -> list[VerificationReport]:
    """Random rational fixtures (jumps, drift, compensators) on (0, 1], all n <= n_max.

    Each fixture builds its levels once, at n_max, and reads every n from them.
    """
    if count < 1 or n_max < 1:
        raise EvaluationError(f"the suite needs count >= 1 and n_max >= 1, got count={count}, n_max={n_max}")
    if not 0 <= max_jumps <= RATIONAL_TICKS:  # before any fixture is drawn
        raise PathError(f"max_jumps must be in [0, {RATIONAL_TICKS}], got {max_jumps}")
    check_batch(count)
    if count * max_jumps > SUITE_JUMP_LIMIT:
        raise PathError(f"{count} fixtures of up to {max_jumps} jumps exceed the limit of {SUITE_JUMP_LIMIT} "
                        "jumps in all: use fewer fixtures or fewer jumps")
    reports = []
    for f in range(count):
        rng = rng_for(seed, f)
        nj = int(rng.integers(0, max_jumps + 1))
        seed_f = int(rng.integers(0, 2**31))
        path = random_jump_path(nj, 1, seed_f, drift_rate="random", moment_order=max(n_max, 2))
        t0 = Fraction(int(rng.integers(0, 4)), 16)
        reports += _exact_reports(path, range(1, n_max + 1), t0, Fraction(1), float_mode=float_mode)
    return reports


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------


def diff_csv_rows(report: VerificationReport) -> list[list[str]]:
    if report.times is None:
        raise EvaluationError("diff CSV requires a grid-substrate report")
    rows = [["step", "t", "direct", "reconstructed", "diff"]]
    for l in range(len(report.times)):
        rows.append(
            [
                str(l),
                repr(float(report.times[l])),
                repr(float(report.direct[l])),
                repr(float(report.reconstructed[l])),
                repr(float(report.diff[l])),
            ]
        )
    return rows


def report_to_json_dict(report: VerificationReport) -> dict:
    return {
        "n": report.n,
        "t0": scalar_to_json(report.t0),
        "t": scalar_to_json(report.t),
        "substrate": report.substrate,
        "provenance": report.provenance,
        "max_abs_diff": scalar_to_json(report.max_abs_diff),
        "terminal_diff": scalar_to_json(report.terminal_diff),
        "terminal_direct": scalar_to_json(report.terminal_direct),
        "term_norms": {str(s): scalar_to_json(v) for s, v in report.term_norms.items()},
    }
