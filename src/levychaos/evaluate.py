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

from . import combinatorics as comb
from .chaos import Expansion, expand, expand_from_moments, scalar_to_json
from .errors import EvaluationError, PathError
from .models import LevyModel, model_label
from .paths import GridPath, JumpPath, grid_index, power_increments, random_jump_path, rng_for, simulate_grid
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
    if i0 >= path.steps:
        raise PathError(f"t0={t0} beyond the grid")
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


def eval_exact(path: JumpPath, theta, t0, t, *, family=None):
    """Exact terminal value of the iterated integral over (t0, t].

    ``family`` is a (drift, jump) pair from :func:`integrators`, by default
    the Y integrators.  Every level is a piecewise polynomial; no
    discretization error.
    """
    theta = tuple(theta)
    if not theta:
        raise EvaluationError("theta must be nonempty")
    if t0 >= t:
        raise EvaluationError(f"t0 >= t: [{t0}, {t}] is empty")
    if t > path.horizon:
        raise PathError(f"t={t} beyond horizon {path.horizon}")
    drift, jump = family if family is not None else integrators(path)

    events = [(s, x) for s, x in path.jumps if t0 < s <= t]
    bps = [t0] + [s for s, _ in events]
    if not events or events[-1][0] != t:
        bps.append(t)
    nseg = len(bps) - 1

    prev = [TimePolynomial((1,))] * nseg
    val = 0
    for ip in theta:
        c = drift(ip)
        polys = []
        val = 0
        for s in range(nseg):
            anti = prev[s].antiderivative()
            piece = anti.scale(c) + TimePolynomial.constant(val - c * anti(bps[s]))
            polys.append(piece)
            end = bps[s + 1]
            val = piece(end)
            if s < len(events):
                val = val + jump(ip, events[s][1]) * prev[s](end)
        prev = polys
    return val


# --------------------------------------------------------------------------
# reconstruction
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridSeries:
    times: np.ndarray
    values: np.ndarray


def path_expansion(n: int, path, *, k_max: int = comb.DEFAULT_ORDER_CAP) -> Expansion:
    """Y-basis expansion of order n built from a path's own compensators.

    A jump path declares its moment vector; a grid path carries the model it
    was simulated from.
    """
    if isinstance(path, JumpPath):
        return expand_from_moments(n, path.mv, k_max=k_max)
    if isinstance(path, GridPath):
        return expand(n, path.model, k_max=k_max)
    raise EvaluationError(f"unknown path substrate {type(path).__name__}")


def _reconstruction(exp: Expansion, path, t0, t):
    """constant + sum_theta Pi_theta(t - t0) * I_theta, and each term's sup norm.

    On a grid path the value is the series over the grid points from t0 (Y
    basis only); on a jump path it is the exact scalar at t.  Zero
    coefficients are not evaluated; their norm is a zero of the substrate's
    scalar type.
    """
    if isinstance(path, GridPath):
        if exp.basis != "Y":
            raise EvaluationError(f"basis/substrate mismatch: grid substrate supports the Y basis, got {exp.basis}")
        t0, exp = float(t0), exp.to_float()  # grid integrals run in doubles
        elapsed = _grid_times(path, t0) - t0
        integral = lambda theta: eval_grid(path, theta, exp.moments, t0).series
        sup = lambda v: float(np.max(np.abs(v)))
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
        sup = abs
    else:
        raise EvaluationError(f"unknown path substrate {type(path).__name__}")

    value = exp.constant(elapsed)
    zero = sup(elapsed * 0)
    norms = {}
    for theta, poly in exp.terms.items():
        if poly.is_zero():
            norms[theta] = zero
            continue
        contrib = poly(elapsed) * integral(theta)
        norms[theta] = sup(contrib)
        value = value + contrib
    return value, norms


def reconstruct(exp: Expansion, path, t0, t=None):
    """Rebuild (X_t - X_{t0})^n from an expansion on either substrate.

    Grid paths return a :class:`GridSeries` (Y basis only); jump paths return
    the exact scalar at ``t``.
    """
    value, _ = _reconstruction(exp, path, t0, t)
    if isinstance(path, GridPath):
        return GridSeries(_grid_times(path, float(t0)), value)
    return value


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


def verify_on_grid_path(
    path: GridPath,
    n: int,
    t0: float,
    *,
    k_max: int = comb.DEFAULT_ORDER_CAP,
) -> VerificationReport:
    """Compare the direct power series with its reconstruction on one path."""
    i0 = grid_index(t0, path.dt)
    x_rel = np.empty(path.steps - i0 + 1)
    x_rel[0] = 0.0
    np.cumsum(path.dX[i0:], out=x_rel[1:])
    direct = x_rel**n
    if n == 0:
        recon, norms = np.ones_like(direct), {}
    else:
        recon, norms = _reconstruction(path_expansion(n, path, k_max=k_max), path, t0, None)
    diff = recon - direct
    return VerificationReport(
        n=n,
        t0=t0,
        t=path.horizon,
        substrate="grid",
        provenance=f"{model_label(path.model)} dt={path.dt} seed={path.seed}/{path.path_index}",
        max_abs_diff=float(np.max(np.abs(diff))),
        terminal_diff=float(diff[-1]),
        terminal_direct=float(direct[-1]),
        term_norms=norms,
        times=_grid_times(path, t0),
        direct=direct,
        reconstructed=recon,
        diff=diff,
    )


def verify_grid(
    model: LevyModel,
    n: int,
    t0: float,
    t: float,
    dt: float,
    seed: int = 0,
    path_index: int = 0,
    *,
    k_max: int = comb.DEFAULT_ORDER_CAP,
) -> VerificationReport:
    """Simulate one path and compare the direct power with its reconstruction."""
    if t0 >= t:
        raise EvaluationError(f"t0 >= t: [{t0}, {t}] is empty")
    path = simulate_grid(model, t, dt, t0, seed, path_index)
    return verify_on_grid_path(path, n, t0, k_max=k_max)


def coarsen_grid(path: GridPath, factor: int, t0: float = 0.0) -> GridPath:
    """The same realization observed on a grid ``factor`` times coarser."""
    if factor < 1 or path.steps % factor:
        raise PathError(f"cannot coarsen {path.steps} steps by {factor}")
    if factor == 1:
        return path
    dX = path.dX.reshape(-1, factor).sum(axis=1)
    return GridPath(t0, path.dt * factor, path.steps // factor, dX, path.seed, path.path_index, path.model)


def verify_grid_sweep(
    model: LevyModel,
    n: int,
    t0: float,
    t: float,
    dts: list,
    seed: int = 0,
    *,
    k_max: int = comb.DEFAULT_ORDER_CAP,
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
    fine = simulate_grid(model, t, dt_fine, 0.0, seed)
    reports = []
    for dt in dts:
        factor = round(dt / dt_fine)
        if abs(factor * dt_fine - dt) > 1e-9 * dt:
            raise PathError(f"dt {dt} is not a multiple of the finest step {dt_fine}")
        t0_dt = round(t0 / dt) * dt
        path = coarsen_grid(fine, factor, t0_dt)
        reports.append(verify_on_grid_path(path, n, t0_dt, k_max=k_max))
    return reports


def verify_exact(
    path: JumpPath,
    n: int,
    t0,
    t,
    *,
    float_mode: bool = False,
    k_max: int = comb.DEFAULT_ORDER_CAP,
) -> VerificationReport:
    """Check the representation identity on an exact jump path.

    In rational mode the terminal difference is an exact scalar (zero when the
    identity holds); float mode evaluates the same algebra in doubles.
    """
    p = path.to_float() if float_mode else path
    if float_mode:
        t0, t = float(t0), float(t)
    direct = (p.value(t) - p.value(t0)) ** n
    if n == 0:
        recon, norms = 1, {}
    else:
        recon, norms = _reconstruction(path_expansion(n, p, k_max=k_max), p, t0, t)
    diff = recon - direct
    return VerificationReport(
        n=n,
        t0=t0,
        t=t,
        substrate="exact",
        provenance=f"jumps={len(p.jumps)} drift={p.drift_rate} float={float_mode}",
        max_abs_diff=abs(diff),
        terminal_diff=diff,
        terminal_direct=direct,
        term_norms=norms,
    )


def verify(target, n: int, t0, t, dt=None, seed: int = 0, **kw) -> VerificationReport:
    """Dispatch on substrate: LevyModel -> grid run, JumpPath -> exact check."""
    if isinstance(target, LevyModel):
        if dt is None:
            raise EvaluationError("grid verification needs dt")
        return verify_grid(target, n, t0, t, dt, seed, **kw)
    if isinstance(target, JumpPath):
        return verify_exact(target, n, t0, t, **kw)
    raise EvaluationError(f"cannot verify against {type(target).__name__}")


@dataclass(eq=False)
class ProductCheckReport:
    m: int
    n: int
    substrate: str
    max_abs_diff: object
    terminal_diff: object


def product_check(path, m: int, n: int, t0, t=None, *, k_max: int = comb.DEFAULT_ORDER_CAP) -> ProductCheckReport:
    """Check reconstruct(m) * reconstruct(n) == reconstruct(m+n) on one path."""
    vals = {k: _reconstruction(path_expansion(k, path, k_max=k_max), path, t0, t)[0] for k in (m, n, m + n)}
    diff = vals[m] * vals[n] - vals[m + n]
    if isinstance(path, GridPath):
        return ProductCheckReport(m, n, "grid", float(np.max(np.abs(diff))), float(diff[-1]))
    return ProductCheckReport(m, n, "exact", abs(diff), diff)


# --------------------------------------------------------------------------
# fixture suite shared by the CLI and the acceptance tests
# --------------------------------------------------------------------------


def exact_identity_suite(
    count: int,
    n_max: int,
    seed: int,
    *,
    max_jumps: int = 8,
    horizon=1,
    float_mode: bool = False,
    k_max: int = comb.DEFAULT_ORDER_CAP,
) -> list[VerificationReport]:
    """Random rational fixtures (jumps, drift, compensators), all n <= n_max."""
    reports = []
    for f in range(count):
        rng = rng_for(seed, f)
        nj = int(rng.integers(0, max_jumps + 1))
        path = random_jump_path(
            nj,
            horizon,
            seed=int(rng.integers(0, 2**31)),
            drift_rate="random",
            moment_order=max(n_max, 2),
            rational=True,
        )
        t0 = Fraction(horizon) * Fraction(int(rng.integers(0, 4)), 16)
        for n in range(1, n_max + 1):
            reports.append(verify_exact(path, n, t0, Fraction(horizon), float_mode=float_mode, k_max=k_max))
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
        "term_norms": {" ".join(map(str, k)): scalar_to_json(v) for k, v in report.term_norms.items()},
    }
