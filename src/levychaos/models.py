"""Process specifications and their moment sequences.

A :class:`LevyModel` is (sigma2, mean_rate, jump_part).  ``mean_rate`` is the
primitive first moment m1 with E[X_t] = m1*t; no separate drift is stored
because every coefficient formula downstream consumes only m_i and sigma^2.
Jump-size moments come in closed form per jump part; quadrature appears only
in test oracles.

The Gamma jump part uses the shape/rate convention: nu(dx) = a x^-1 e^(-bx) dx
on (0, inf), so m_i = a*(i-1)!/b^i and the jump part alone contributes a/b to
the mean rate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ModelError, MomentError
from .timepoly import ratio

Scalar = Union[int, float, Fraction]


# --------------------------------------------------------------------------
# jump-size laws for compound Poisson parts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoPoint:
    x_minus: Scalar
    p_minus: Scalar
    x_plus: Scalar
    p_plus: Scalar

    def __post_init__(self):
        if self.x_minus == 0 or self.x_plus == 0:
            raise ModelError("two-point jump values must be nonzero")
        if self.p_minus < 0 or self.p_plus < 0 or self.p_minus + self.p_plus != 1:
            raise ModelError("two-point probabilities must be >= 0 and sum to 1")

    def moment(self, i: int) -> Scalar:
        return self.p_minus * self.x_minus**i + self.p_plus * self.x_plus**i


@dataclass(frozen=True)
class ExponentialSigned:
    """|J| ~ Exponential(rate); sign is + with probability sign_prob."""

    rate: Scalar
    sign_prob: Scalar

    def __post_init__(self):
        if self.rate <= 0:
            raise ModelError("exponential jump rate must be > 0")
        if not 0 <= self.sign_prob <= 1:
            raise ModelError("sign probability must lie in [0, 1]")

    def moment(self, i: int) -> Scalar:
        signed = self.sign_prob + (-1) ** i * (1 - self.sign_prob)
        return ratio(signed * math.factorial(i), self.rate**i)


@dataclass(frozen=True)
class Deterministic:
    value: Scalar

    def __post_init__(self):
        if self.value == 0:
            raise ModelError("deterministic jump size must be nonzero")

    def moment(self, i: int) -> Scalar:
        return self.value**i


JumpLaw = Union[TwoPoint, ExponentialSigned, Deterministic]


# --------------------------------------------------------------------------
# jump parts
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaJumps:
    a: Scalar
    b: Scalar

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ModelError("Gamma jump part requires a > 0 and b > 0")


@dataclass(frozen=True)
class CompoundPoisson:
    intensity: Scalar
    law: JumpLaw

    def __post_init__(self):
        if self.intensity <= 0:
            raise ModelError("compound Poisson intensity must be > 0")


@dataclass(frozen=True)
class SyntheticMoments:
    """Explicit m2..mN, accepted as-is (no integrability check)."""

    values: tuple

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(values))


JumpPart = Union[GammaJumps, CompoundPoisson, SyntheticMoments, None]


@dataclass(frozen=True)
class LevyModel:
    sigma2: Scalar
    mean_rate: Scalar
    jump_part: JumpPart = None

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ModelError("sigma2 must be >= 0")
        if self.jump_part is None and self.sigma2 == 0 and self.mean_rate == 0:
            raise ModelError("degenerate model: no jumps, no diffusion, no drift")

    @staticmethod
    def build(sigma2: Scalar = 0, jump_part: JumpPart = None, drift: Scalar = 0) -> "LevyModel":
        """Model whose mean rate is the jump part's own mean plus ``drift``."""
        return LevyModel(sigma2, drift + jump_mean_rate(jump_part), jump_part)


def jump_mean_rate(jump_part: JumpPart) -> Scalar:
    """int x nu(dx): the jump part's contribution to m1."""
    if jump_part is None:
        return 0
    if isinstance(jump_part, GammaJumps):
        return ratio(jump_part.a, jump_part.b)
    if isinstance(jump_part, CompoundPoisson):
        return jump_part.intensity * jump_part.law.moment(1)
    if isinstance(jump_part, SyntheticMoments):
        return 0
    raise ModelError(f"unknown jump part {jump_part!r}")


# --------------------------------------------------------------------------
# moment vectors
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentVector:
    """m1..mN (index 1-based via :meth:`moment`) with sigma2 carried along."""

    m: tuple
    sigma2: Scalar
    adjusted: bool = False

    @property
    def order(self) -> int:
        return len(self.m)

    def moment(self, i: int) -> Scalar:
        if not 1 <= i <= len(self.m):
            raise MomentError(f"insufficient moments: need m{i}, have {len(self.m)}")
        return self.m[i - 1]

    def as_float(self) -> "MomentVector":
        return MomentVector(tuple(float(x) for x in self.m), float(self.sigma2), self.adjusted)


def _convert_law(law: JumpLaw, conv) -> JumpLaw:
    if isinstance(law, TwoPoint):
        return TwoPoint(conv(law.x_minus), conv(law.p_minus), conv(law.x_plus), conv(law.p_plus))
    if isinstance(law, ExponentialSigned):
        return ExponentialSigned(conv(law.rate), conv(law.sign_prob))
    return Deterministic(conv(law.value))


def _jump_moment(jump_part: JumpPart, i: int, conv) -> Scalar:
    # conversion happens before any division so exact inputs stay exact
    if jump_part is None:
        return conv(0)
    if isinstance(jump_part, GammaJumps):
        return conv(jump_part.a) * math.factorial(i - 1) / conv(jump_part.b) ** i
    if isinstance(jump_part, CompoundPoisson):
        return conv(jump_part.intensity) * _convert_law(jump_part.law, conv).moment(i)
    if isinstance(jump_part, SyntheticMoments):
        if i - 2 >= len(jump_part.values):
            raise MomentError(
                f"insufficient moments: synthetic part defines m2..m{len(jump_part.values) + 1}, need m{i}"
            )
        return conv(jump_part.values[i - 2])
    raise ModelError(f"unknown jump part {jump_part!r}")


def moments(model: LevyModel, N: int, *, exact: bool = False) -> MomentVector:
    """Closed-form m1..mN for the model; ``exact`` keeps Fraction scalars.

    m1 is the model's mean rate; m_i = int x^i nu(dx) for i >= 2.
    """
    if N < 1:
        raise MomentError("moment order must be >= 1")
    conv = Fraction if exact else float
    try:
        vals = [conv(model.mean_rate)]
        for i in range(2, N + 1):
            vals.append(_jump_moment(model.jump_part, i, conv))
        sigma2 = conv(model.sigma2)
    except OverflowError:
        raise MomentError("moment undefined: a model parameter or moment overflows a float")
    except ZeroDivisionError:
        raise MomentError("moment undefined: a model parameter underflows to 0.0 as a float")
    out = []
    for i, v in enumerate(vals, start=1):
        if isinstance(v, float) and not math.isfinite(v):
            raise MomentError(f"moment undefined: m{i} is not finite")
        out.append(v)
        if i >= 2 and i % 2 == 0 and isinstance(model.jump_part, (GammaJumps, CompoundPoisson)):
            if out[-1] < 0:
                raise MomentError(f"moment undefined: even moment m{i} negative")
    return MomentVector(tuple(out), sigma2, adjusted=False)


def sigma_adjust(mv: MomentVector) -> MomentVector:
    """Fold the Brownian variance into m2 (m2 -> m2 + sigma2), once."""
    if mv.adjusted:
        raise MomentError("already adjusted")
    if mv.order < 2:
        raise MomentError("insufficient moments: sigma adjustment needs m2")
    m = list(mv.m)
    m[1] = m[1] + mv.sigma2
    return MomentVector(tuple(m), mv.sigma2, adjusted=True)


# --------------------------------------------------------------------------
# model specification strings (CLI grammar)
# --------------------------------------------------------------------------
#
#   gamma:a=<f>,b=<f>
#   cpoisson:lambda=<f>,jump=point:<x->:<p->:<x+>   (also det:<v>, expsign:<rate>:<p+>)
#   brownian:sigma=<f>
#   drift:mu=<f>
#
# combinable with '+', e.g. "brownian:sigma=0.01+gamma:a=10,b=20".


def _num(tok: str) -> Scalar:
    tok = tok.strip()
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ModelError(f"cannot parse number {tok!r}")


def _fields(body: str, want: list[str], component: str) -> dict:
    got = {}
    for piece in body.split(","):
        if "=" not in piece:
            raise ModelError(f"bad field {piece!r} in {component!r}")
        key, _, val = piece.partition("=")
        got[key.strip()] = val.strip()
    if set(got) != set(want):
        raise ModelError(f"{component} needs fields {want}, got {sorted(got)}")
    return got


def _parse_jump_law(spec: str) -> JumpLaw:
    kind, _, rest = spec.partition(":")
    parts = rest.split(":") if rest else []
    if kind == "point":
        if len(parts) != 3:
            raise ModelError("point law needs <x->:<p->:<x+>")
        x_minus, p_minus, x_plus = map(_num, parts)
        return TwoPoint(x_minus, p_minus, x_plus, 1 - p_minus)
    if kind == "det":
        if len(parts) != 1:
            raise ModelError("det law needs <value>")
        return Deterministic(_num(parts[0]))
    if kind == "expsign":
        if len(parts) != 2:
            raise ModelError("expsign law needs <rate>:<sign_prob>")
        return ExponentialSigned(_num(parts[0]), _num(parts[1]))
    raise ModelError(f"unknown jump law {kind!r}")


def parse_model(spec: str) -> LevyModel:
    """Parse a model specification string into a LevyModel."""
    sigma2: Scalar = 0
    drift: Scalar = 0
    jump: JumpPart = None
    for comp in re.split(r"\+(?=[a-z])", spec.strip()):
        name, sep, body = comp.partition(":")
        if not sep:
            raise ModelError(f"component {comp!r} missing ':'")
        name = name.strip()
        if name == "gamma":
            f = _fields(body, ["a", "b"], "gamma")
            part = GammaJumps(_num(f["a"]), _num(f["b"]))
        elif name == "cpoisson":
            # 'jump=' value itself contains ':'; split fields on the lambda only
            m = re.fullmatch(r"\s*lambda=([^,]+),jump=(.+)\s*", body)
            if not m:
                raise ModelError("cpoisson needs lambda=<f>,jump=<law>")
            part = CompoundPoisson(_num(m.group(1)), _parse_jump_law(m.group(2)))
        elif name == "brownian":
            f = _fields(body, ["sigma"], "brownian")
            sigma = _num(f["sigma"])
            if sigma < 0:
                raise ModelError("sigma must be >= 0")
            sigma2 = sigma2 + sigma * sigma
            continue
        elif name == "drift":
            f = _fields(body, ["mu"], "drift")
            drift = drift + _num(f["mu"])
            continue
        else:
            raise ModelError(f"unknown component {name!r}")
        if jump is not None:
            raise ModelError("at most one jump component per model")
        jump = part
    return LevyModel.build(sigma2=sigma2, jump_part=jump, drift=drift)


def model_label(model: LevyModel) -> str:
    """Short provenance string for reports and CSV headers."""
    bits = [f"sigma2={model.sigma2}", f"m1={model.mean_rate}"]
    if model.jump_part is not None:
        bits.append(repr(model.jump_part))
    return " ".join(bits)
