"""Path substrates: Monte Carlo grids and exact finite-jump paths.

Grid paths carry per-step increments dX of the simulated process; Gamma
increments are sampled exactly from their known law (Gamma(a*dt, rate b)), so
the only discretization error left is the power-jump approximation
(dX)^i ~ sum of jump^i within a step, which vanishes as dt -> 0.

Jump paths are synthetic: finitely many jumps plus linear drift, with a
freely declared compensator vector.  On such a path every iterated integral
is computable in closed form, which turns the representation identity into an
exact algebraic test.

Randomness is counter-based: each path derives its stream from numpy's Philox
generator keyed by (seed, path_index), so batches are reproducible regardless
of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import MomentError, PathError
from .models import (
    CompoundPoisson,
    Deterministic,
    ExponentialSigned,
    GammaJumps,
    LevyModel,
    MomentVector,
    SyntheticMoments,
    TwoPoint,
    jump_mean_rate,
)


def rng_for(seed: int, path_index: int = 0) -> np.random.Generator:
    """Independent, reproducible stream for one path of a batch."""
    if seed < 0:
        raise PathError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(path_index,))))


# --------------------------------------------------------------------------
# grid paths
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GridPath:
    dt: float
    steps: int
    dX: np.ndarray
    seed: int
    path_index: int
    model: LevyModel

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    def cumulative(self) -> np.ndarray:
        out = np.empty(self.steps + 1)
        out[0] = 0.0
        np.cumsum(self.dX, out=out[1:])
        return out


def grid_index(t: float, dt: float, label: str = "t0") -> int:
    if not (math.isfinite(t) and math.isfinite(dt) and math.isfinite(t / dt)):
        raise PathError(f"non-finite {label}, dt or step count: {label}={t}, dt={dt}")
    idx = round(t / dt)
    if abs(idx * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise PathError(f"misaligned {label}: {t} is not a grid multiple of dt={dt}")
    return idx


def sample_jump_law(law, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent draws from a compound-Poisson jump-size law."""
    if isinstance(law, TwoPoint):
        vals = np.array([float(law.x_minus), float(law.x_plus)])
        probs = np.array([float(law.p_minus), float(law.p_plus)])
        return rng.choice(vals, size=count, p=probs)
    if isinstance(law, Deterministic):
        return np.full(count, float(law.value))
    if isinstance(law, ExponentialSigned):
        mag = rng.exponential(1.0 / float(law.rate), size=count)
        signs = np.where(rng.random(count) < float(law.sign_prob), 1.0, -1.0)
        return mag * signs
    raise PathError(f"cannot sample jump law {law!r}")


def _draw_increments(model: LevyModel, h: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent increments of X over a time span ``h``.

    Draw order (jump part, then Brownian part, then residual drift) fixes
    which numbers a seed produces.
    """
    if isinstance(model.jump_part, SyntheticMoments):
        raise PathError("cannot simulate a synthetic-moment model")
    try:
        out = np.zeros(count)
        if isinstance(model.jump_part, GammaJumps):
            a, b = float(model.jump_part.a), float(model.jump_part.b)
            out += rng.gamma(a * h, 1.0 / b, size=count)
        elif isinstance(model.jump_part, CompoundPoisson):
            lam = float(model.jump_part.intensity)
            counts = rng.poisson(lam * h, size=count)
            total = int(counts.sum())
            if total:
                sizes = sample_jump_law(model.jump_part.law, total, rng)
                out += np.bincount(np.repeat(np.arange(count), counts), weights=sizes, minlength=count)
        if model.sigma2 > 0:
            out += rng.normal(0.0, math.sqrt(float(model.sigma2) * h), size=count)
        extra_drift = float(model.mean_rate) - float(jump_mean_rate(model.jump_part))
        if extra_drift != 0.0:
            out += extra_drift * h
    except (OverflowError, ValueError, ZeroDivisionError) as exc:  # a parameter beyond float or numpy sampler range
        raise PathError(f"cannot sample the model: {exc}")
    return out


# Most steps one grid path, or one batch of grid paths in all, may hold,
# checked before any draw.  At this limit, on a 2-CPU Xeon, `simulate` takes
# about 3 s and 76 MB; `verify --n 12` 1.2 s and 280 MB, or 12 s and 750 MB
# with `--out`, whose diff CSV is built row by row; and a grid `taylor` study
# of 1000 paths of 1000 steps 2.2 s and 44 MB.  Cost grows linearly in the
# step count.
STEP_LIMIT = 10**6

# Most paths one batch may hold: grid paths or exact fixtures, checked before
# any draw.  At this limit, on a 2-CPU Xeon, `exact-verify --n 12` at the
# default `--max-jumps 8` takes about 38 s and 56 MB, and `taylor` on a
# 2-interval exp spec 3.2 s and 40 MB on exact fixtures.  Cost grows linearly
# in the count.
PATH_LIMIT = 1000


def check_batch(count: int, steps: int = 0) -> None:
    """Refuse more than PATH_LIMIT paths, or ``count`` paths of ``steps`` steps above STEP_LIMIT in all."""
    if count > PATH_LIMIT:
        raise PathError(f"{count} paths exceed the limit of {PATH_LIMIT}")
    if count * steps > STEP_LIMIT:
        raise PathError(f"{count} paths of {steps} steps exceed the limit of {STEP_LIMIT} steps in all: "
                        "use fewer paths or a larger dt")


def _grid_steps(T: float, dt: float) -> int:
    """Step count of a grid over [0, T], refused above STEP_LIMIT."""
    if dt <= 0:
        raise PathError("nonpositive dt")
    if T < dt:
        raise PathError(f"horizon {T} shorter than one step {dt}")
    steps = grid_index(T, dt, "horizon")
    if steps > STEP_LIMIT:
        raise PathError(f"{steps} grid steps exceed the limit of {STEP_LIMIT}: use a larger dt or a shorter horizon")
    return steps


def simulate_grid(
    model: LevyModel,
    T: float,
    dt: float,
    seed: int = 0,
    path_index: int = 0,
) -> GridPath:
    """Per-step increments of X over [0, T]; deterministic given (seed, path_index)."""
    steps = _grid_steps(T, dt)
    dX = _draw_increments(model, dt, steps, rng_for(seed, path_index))
    return GridPath(float(dt), steps, dX, seed, path_index, model)


def simulate_batch(model: LevyModel, T: float, dt: float, count: int, seed: int = 0) -> list[GridPath]:
    """Grid paths 0..count-1 of ``seed`` over [0, T]; the batch is checked before any draw."""
    check_batch(count, _grid_steps(T, dt))
    return [simulate_grid(model, T, dt, seed, i) for i in range(count)]


def power_increments(path: GridPath, i: int, mv_adjusted: MomentVector) -> np.ndarray:
    """Per-step increments of the i-th compensated power process on the grid.

    (dX)^2 absorbs the Brownian quadratic variation, which is exactly why the
    sigma-adjusted compensator is the one to subtract.
    """
    if not mv_adjusted.adjusted:
        raise MomentError("unadjusted moments rejected: sigma-adjust first")
    if i < 1:
        raise MomentError("power index must be >= 1")
    return path.dX**i - float(mv_adjusted.moment(i)) * path.dt


def sample_terminal_increments(
    model: LevyModel, t: float, n_samples: int, seed: int
) -> np.ndarray:
    """Draw X_{t0+t} - X_{t0} directly from the increment law (no grid)."""
    if not t > 0:
        raise PathError("t must be > 0")
    return _draw_increments(model, t, n_samples, rng_for(seed, 0))


# --------------------------------------------------------------------------
# exact jump paths
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpPath:
    """Finitely many jumps plus drift, with declared compensator values.

    The declared moment vector is a free choice: the representation identity
    holds pathwise for any compensator constants as long as the compensated
    processes are built from the same values.
    """

    horizon: object
    drift_rate: object
    jumps: tuple  # ((time, size), ...) strictly increasing times in (0, horizon]
    mv: MomentVector

    def __post_init__(self):
        last = 0
        for s, x in self.jumps:
            if s <= last:
                raise PathError("jump times must be strictly increasing (duplicates rejected)")
            if s > self.horizon:
                raise PathError(f"jump at {s} beyond horizon {self.horizon}")
            if x == 0:
                raise PathError("jump sizes must be nonzero")
            last = s

    def value(self, u):
        """X_u = drift*u + sum of jumps at times <= u."""
        acc = self.drift_rate * u
        for s, x in self.jumps:
            if s <= u:
                acc = acc + x
        return acc

    def to_float(self) -> "JumpPath":
        return JumpPath(
            float(self.horizon),
            float(self.drift_rate),
            tuple((float(s), float(x)) for s, x in self.jumps),
            self.mv.as_float(),
        )


def make_jump_path(
    horizon,
    drift_rate,
    jumps: Sequence[tuple],
    moments_decl: Sequence,
    sigma2=0,
) -> JumpPath:
    """Assemble a JumpPath; ``moments_decl`` are the compensator values m1.. ."""
    mv = MomentVector(tuple(moments_decl), sigma2, adjusted=True)
    return JumpPath(horizon, drift_rate, tuple((s, x) for s, x in jumps), mv)


# Rational fixture jump times are distinct multiples of horizon / RATIONAL_TICKS.
RATIONAL_TICKS = 1024


def random_jump_path(
    count: int,
    horizon,
    seed: int,
    *,
    drift_rate=0,
    moments_decl: Optional[Sequence] = None,
    moment_order: int = 6,
) -> JumpPath:
    """Random rational fixture: ``count`` jumps at distinct times in (0, horizon].

    Times, sizes, drift and compensators are small Fractions, so downstream
    evaluation is exact.
    """
    if count < 0:
        raise PathError("jump count must be >= 0")
    if count > RATIONAL_TICKS:
        raise PathError(f"a rational fixture holds at most {RATIONAL_TICKS} jumps, got {count}")
    rng = rng_for(seed, 0)
    horizon = Fraction(horizon)
    ticks = sorted(rng.choice(np.arange(1, RATIONAL_TICKS + 1), size=count, replace=False)) if count else []
    times = [horizon * Fraction(int(k), RATIONAL_TICKS) for k in ticks]
    sizes = []
    for _ in range(count):
        num = 0
        while num == 0:
            num = int(rng.integers(-20, 21))
        sizes.append(Fraction(num, int(rng.integers(1, 11))))
    if moments_decl is None:
        moments_decl = tuple(
            Fraction(int(rng.integers(-10, 11)), int(rng.integers(1, 9)))
            for _ in range(moment_order)
        )
    if drift_rate == "random":
        drift_rate = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 9)))
    return make_jump_path(horizon, drift_rate, list(zip(times, sizes)), moments_decl)


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------


# Rows per chunk of grid CSV text; a chunk's columns as Python lists take a few MB.
CSV_CHUNK_ROWS = 1 << 16


def grid_csv_chunks(path: GridPath) -> Iterator[str]:
    """The path as CSV text (header ``step,t,dX,X``), in chunks of CSV_CHUNK_ROWS rows.

    t_l = l*dt; X_l = 0.0 + dX_1 + ... + dX_l.  ``np.cumsum`` adds in sequence,
    so X matches a Python running sum from 0.0 bit for bit (signed zeros too).
    """
    yield "step,t,dX,X\n"
    x = np.cumsum(np.concatenate(([0.0], path.dX)))
    for start in range(0, path.steps, CSV_CHUNK_ROWS):
        stop = min(start + CSV_CHUNK_ROWS, path.steps)
        steps = np.arange(start + 1, stop + 1)
        columns = steps, steps * path.dt, path.dX[start:stop], x[start + 1:stop + 1]
        rows = zip(*(column.tolist() for column in columns))
        yield "".join([f"{l},{t!r},{dx!r},{xl!r}\n" for l, t, dx, xl in rows])
