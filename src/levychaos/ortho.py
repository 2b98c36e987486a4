"""Orthogonalization of compensated power jump processes.

The strongly orthogonal martingale combinations H^(i) = sum_j a_{i,j} Y^(j)
come from monic polynomials orthogonal under the measure with moments
mu_r = sigma2*[r=0] + m_{r+2}.  Gram-Schmidt runs directly on those moments
(Hankel inner products); b = A^{-1} maps Y back onto H.  Moment matrices are
notoriously ill-conditioned, so float mode reorthogonalizes every projection
and refuses Hankel condition numbers beyond 1e12; exact mode eliminates in
rational arithmetic.

In the H basis, the expansion of (X_{t+t0} - X_{t0})^n has a closed form.
Since Pi_theta = n!/((n-s)! prod_j theta_j!) C^(n-s) with s = sum(theta), and
Y^(i) = sum_{k<=i} b_{i,k} H^(k),

    Pi^H_kappa = sum_{s >= sum(kappa)} n!/(n-s)! C^(n-s) [z^s] prod_j g_{kappa_j}(z),
    g_k(z) = sum_{i=k..n} b_{i,k} z^i / i!,

with the product truncated at degree n.  Pi^H_kappa reads kappa only through
its multiset, so :func:`expand_h` builds one polynomial per multiset;
:func:`to_h_basis` keeps the generic per-tuple change of basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
import numpy as np

from . import combinatorics as comb
from .chaos import Expansion, _per_multiset, c_polys, expand
from .errors import DegenerateMeasureError, OrderError
from .models import LevyModel, MomentVector, moments, sigma_adjust
from .timepoly import TimePolynomial, ratio

FLOAT_ORDER_CAP = 8
COND_LIMIT = 1e12


@dataclass(frozen=True)
class EtaMoments:
    """Moments mu_0..mu_{2N-2} of the orthogonality measure."""

    mu: tuple

    def __post_init__(self):
        if not self.mu or self.mu[0] <= 0:
            raise DegenerateMeasureError("degenerate measure: mu_0 must be > 0")


def eta_moments(mv: MomentVector, N: int) -> EtaMoments:
    """Measure moments through order N: mu_r = sigma2*[r=0] + m_{r+2}."""
    if N < 1:
        raise OrderError("orthogonalization order must be >= 1")
    need = 2 * N
    if mv.order < need:
        raise OrderError(f"insufficient moments: orthogonalization to {N} needs m2..m{need}")
    mu = [mv.sigma2 + mv.moment(2)]
    for r in range(1, 2 * N - 1):
        mu.append(mv.moment(r + 2))
    return EtaMoments(tuple(mu))


def _inner(mu: tuple, p: list, q: list):
    acc = 0
    for u, pu in enumerate(p):
        if pu == 0:
            continue
        for v, qv in enumerate(q):
            if qv == 0:
                continue
            acc = acc + pu * qv * mu[u + v]
    return acc


def _is_float_mode(mu: tuple) -> bool:
    return any(isinstance(x, float) for x in mu)


def gram_schmidt(eta: EtaMoments, N: int) -> tuple:
    """Monic orthogonal polynomial coefficients a_{i,j}, rows i = 1..N.

    Row i lists (a_{i,1}, ..., a_{i,i}) with a_{i,i} = 1; p_i(x) =
    sum_j a_{i,j} x^(j-1) and <p_i, p_j> = 0 for i != j under the moment
    inner product <x^u, x^v> = mu_{u+v}.
    """
    float_mode = _is_float_mode(eta.mu)
    if len(eta.mu) < 2 * N - 1:
        raise OrderError(f"eta moments cover order {(len(eta.mu) + 1) // 2}, need {N}")
    if float_mode:
        if N > FLOAT_ORDER_CAP:
            raise OrderError(f"order too large: float-mode orthogonalization capped at {FLOAT_ORDER_CAP}")
        hankel = np.array([[float(eta.mu[i + j]) for j in range(N)] for i in range(N)])
        if N > 1 and np.linalg.cond(hankel) > COND_LIMIT:
            raise DegenerateMeasureError("degenerate measure: reduce order")

    rows: list[list] = [[1]]
    norms = [eta.mu[0]]
    passes = 2 if float_mode else 1
    for n in range(2, N + 1):
        v = [0] * (n - 1) + [1]  # monic x^(n-1)
        for _ in range(passes):
            for m in range(n - 1):
                c = _inner(eta.mu, v, rows[m]) / norms[m]
                for j, pj in enumerate(rows[m]):
                    v[j] = v[j] - c * pj
        norm = _inner(eta.mu, v, v)
        if norm <= 0:
            raise DegenerateMeasureError("degenerate measure: reduce order")
        rows.append(v)
        norms.append(norm)
    return tuple(tuple(r) for r in rows)


def invert_to_b(a: tuple) -> tuple:
    """Inverse of the unit lower triangular a-array.

    Forward recursion b_{n,k} = -sum_{l=k}^{n-1} a_{n,l} b_{l,k}, b_{n,n} = 1;
    gives Y^(n) = H^(n) + sum_{k<n} b_{n,k} H^(k).
    """
    N = len(a)
    b: list[list] = []
    for n in range(1, N + 1):
        row = [0] * n
        row[n - 1] = 1
        for k in range(n - 1, 0, -1):
            acc = 0
            for l in range(k, n):
                acc = acc + a[n - 1][l - 1] * b[l - 1][k - 1]
            row[k - 1] = -acc
        b.append(row)
    return tuple(tuple(r) for r in b)


@dataclass(frozen=True)
class OrthoTriangular:
    """Paired unit-lower-triangular arrays a (H from Y) and b (Y from H)."""

    a: tuple
    b: tuple
    mu: tuple

    @property
    def order(self) -> int:
        return len(self.a)

    def entry_b(self, n: int, k: int):
        return self.b[n - 1][k - 1]


def orthogonalize(model: LevyModel, N: int, *, exact: bool = False) -> OrthoTriangular:
    """Build the a/b arrays for a model (moments taken to order 2N)."""
    mv = moments(model, 2 * N, exact=exact)
    eta = eta_moments(mv, N)
    a = gram_schmidt(eta, N)
    return OrthoTriangular(a, invert_to_b(a), eta.mu)


def _basis_change(exp: Expansion, tri: tuple, new_basis: str, ortho) -> Expansion:
    n = exp.order
    new_terms = {theta: TimePolynomial.zero() for theta in comb.index_set(n)}
    for theta, poly in exp.terms.items():
        if poly.is_zero():
            continue
        for kappa in itertools.product(*(range(1, ip + 1) for ip in theta)):
            w = 1
            for ip, kp in zip(theta, kappa):
                w = w * tri[ip - 1][kp - 1]
            if w == 0:
                continue
            new_terms[kappa] = new_terms[kappa] + poly.scale(w)
    return Expansion(n, new_basis, new_terms, exp.constant, exp.moments, ortho)


def to_h_basis(exp: Expansion, ortho: OrthoTriangular) -> Expansion:
    """Rewrite a Y-basis expansion over the orthogonal martingale integrators.

    Each integrator of order i is expanded through b_{i,k}; the constant is
    untouched.
    """
    if exp.basis != "Y":
        raise OrderError(f"basis/substrate mismatch: expected Y-basis expansion, got {exp.basis}")
    max_part = max((max(t) for t in exp.terms if t), default=1)
    if ortho.order < max_part:
        raise OrderError(f"order mismatch: ortho order {ortho.order} < max integrator {max_part}")
    return _basis_change(exp, ortho.b, "H", ortho)


def to_y_basis(exp: Expansion, ortho: OrthoTriangular) -> Expansion:
    """Inverse of :func:`to_h_basis` (integrators expanded through a_{i,j})."""
    if exp.basis != "H":
        raise OrderError(f"basis/substrate mismatch: expected H-basis expansion, got {exp.basis}")
    max_part = max((max(t) for t in exp.terms if t), default=1)
    if ortho.order < max_part:
        raise OrderError(f"order mismatch: ortho order {ortho.order} < max integrator {max_part}")
    return _basis_change(exp, ortho.a, "Y", None)


def expand_h(n: int, model: LevyModel, *, exact: bool = False) -> Expansion:
    """H-basis expansion of (X_{t+t0} - X_{t0})^n for the given model.

    Float mode is ``to_h_basis(expand(...), orthogonalize(...))``.  Rational
    mode builds each multiset's coefficient from the generating functions g_k
    of the module docstring, with the terms in ``index_set`` order; it equals
    that route term for term.
    """
    if not exact:
        return to_h_basis(expand(n, model), orthogonalize(model, n))
    comb.check_order(n)  # before the moments, which a huge n would take long to build
    mv = sigma_adjust(moments(model, max(n, 2), exact=True))
    c = c_polys(n, mv)
    ortho = orthogonalize(model, n, exact=True)
    fact = [math.factorial(i) for i in range(n + 1)]
    # g[k][i] = b_{i,k} / i!, zero below degree k
    g = [None] + [[0] * k + [ratio(ortho.entry_b(i, k), fact[i]) for i in range(k, n + 1)] for k in range(1, n + 1)]
    # products[key] = prod_j g_{key_j}(z) truncated at degree n, for sorted keys
    products = {(): [1] + [0] * n}

    def coeff(key):
        k = key[-1]
        head, gk = products[key[:-1]], g[k]  # index_set lists every smaller sum first
        prod = products[key] = [0] * (n + 1)
        for i, hi in enumerate(head):
            if hi:
                for j in range(k, n + 1 - i):
                    prod[i + j] += hi * gk[j]
        acc = [0] * (n + 1)
        for s, w in enumerate(prod):
            if w:
                w *= fact[n] // fact[n - s]
                for r, cr in enumerate(c[n - s].coeffs):
                    acc[r] += w * cr
        return TimePolynomial(acc)

    return Expansion(n, "H", _per_multiset(comb.index_set(n), coeff), c[n], mv, ortho)


def ortho_to_json_dict(ortho: OrthoTriangular) -> dict:
    from .chaos import scalar_to_json

    return {
        "order": ortho.order,
        "a": [[scalar_to_json(x) for x in row] for row in ortho.a],
        "b": [[scalar_to_json(x) for x in row] for row in ortho.b],
        "eta_moments": [scalar_to_json(x) for x in ortho.mu],
    }
