import itertools
from fractions import Fraction

import numpy as np
import pytest

from levychaos.chaos import expand, terms_equal
from levychaos.errors import DegenerateMeasureError, OrderError
from levychaos.models import (
    CompoundPoisson,
    Deterministic,
    LevyModel,
    MomentVector,
    TwoPoint,
    moments,
    sigma_adjust,
)
from levychaos.ortho import (
    EtaMoments,
    OrthoTriangular,
    eta_moments,
    expand_h,
    gram_schmidt,
    invert_to_b,
    ortho_to_json_dict,
    orthogonalize,
    to_h_basis,
    to_y_basis,
)
from levychaos.timepoly import TimePolynomial


def chain_sum_b(a, n, k):
    """Oracle: b_{n,k} as the signed sum over strictly decreasing index chains
    n = i_1 > i_2 > ... > i_j = k of (-1)^(j-1) a_{i1,i2} ... a_{i_{j-1}, i_j}."""
    if n == k:
        return 1
    total = 0
    middles = [i for i in range(k + 1, n)]
    for r in range(len(middles) + 1):
        for mid in itertools.combinations(middles, r):
            chain = (n,) + tuple(sorted(mid, reverse=True)) + (k,)
            prod = 1
            for hi, lo in zip(chain, chain[1:]):
                prod *= a[hi - 1][lo - 1]
            total += (-1) ** (len(chain) - 1) * prod
    return total


def monic_laguerre_alpha1(N, b):
    """Oracle: monic orthogonal polynomials for the weight x e^(-bx) via the
    classical three-term recurrence (alpha_n = (2n+2)/b, beta_n = n(n+1)/b^2)."""
    polys = [TimePolynomial((Fraction(1),))]
    x = TimePolynomial((0, Fraction(1)))
    prev = TimePolynomial.zero()
    for n in range(N - 1):
        alpha = Fraction(2 * n + 2, 1) / b
        beta = Fraction(n * (n + 1), 1) / (b * b)
        nxt = (x - TimePolynomial((alpha,))) * polys[-1] - prev.scale(beta)
        prev = polys[-1]
        polys.append(nxt)
    return polys


def hankel_inner(mu, p, q):
    return sum(pu * qv * mu[u + v] for u, pu in enumerate(p) for v, qv in enumerate(q))


class TestEtaMoments:
    def test_pure_brownian(self):
        mv = moments(LevyModel(1, 0), 4)
        eta = eta_moments(mv, 2)
        assert eta.mu == (1.0, 0.0, 0.0)

    def test_gamma(self, gamma_model):
        eta = eta_moments(moments(gamma_model, 4), 2)
        assert eta.mu[0] == pytest.approx(0.025)
        assert eta.mu[1] == pytest.approx(0.0025)

    def test_synthetic_sum(self):
        mv = MomentVector((0, 4, 6, 1), 1)
        eta = eta_moments(mv, 2)
        assert eta.mu == (5, 6, 1)

    def test_insufficient(self, gamma_model):
        with pytest.raises(OrderError, match="insufficient"):
            eta_moments(moments(gamma_model, 4), 3)


class TestGramSchmidt:
    def test_gamma_a21_anchor(self, gamma_model):
        ortho = orthogonalize(gamma_model, 2, exact=True)
        assert ortho.a[1][0] == Fraction(-1, 10)  # -2/b with b=20

    @pytest.mark.parametrize("exact", [True, False])
    def test_matches_monic_laguerre(self, gamma_model, exact):
        N = 6
        ortho = orthogonalize(gamma_model, N, exact=exact)
        oracle = monic_laguerre_alpha1(N, Fraction(20))
        for i in range(N):
            got = ortho.a[i]
            want = oracle[i].coeffs
            for g, w in zip(got, want):
                assert float(g) == pytest.approx(float(w), rel=1e-10, abs=1e-14)

    def test_symmetric_two_point_kills_odd(self):
        law = TwoPoint(-1, Fraction(1, 2), 1, Fraction(1, 2))
        model = LevyModel.build(jump_part=CompoundPoisson(Fraction(2), law))
        ortho = orthogonalize(model, 2, exact=True)
        assert ortho.a[1][0] == 0
        # two support points: order 3 is degenerate
        with pytest.raises(DegenerateMeasureError):
            orthogonalize(model, 3, exact=True)

    def test_defining_equation(self, gamma_model):
        mv = moments(gamma_model, 4, exact=True)
        eta = eta_moments(mv, 2)
        a = gram_schmidt(eta, 2)
        assert eta.mu[1] + a[1][0] * eta.mu[0] == 0  # <p2, p1> = mu1 + a21 mu0

    def test_orthogonality_residuals_float(self, gamma_model):
        N = 8
        ortho = orthogonalize(gamma_model, N)
        mu = [float(x) for x in ortho.mu]
        norms = [hankel_inner(mu, row, row) ** 0.5 for row in ortho.a]
        for i in range(N):
            for j in range(i):
                resid = abs(hankel_inner(mu, ortho.a[i], ortho.a[j]))
                assert resid <= 1e-10 * norms[i] * norms[j]

    def test_pure_brownian_degenerate_beyond_order_one(self):
        mv = moments(LevyModel(1, 0), 6)
        eta = eta_moments(mv, 3)
        assert gram_schmidt(eta, 1) == ((1,),)
        with pytest.raises(DegenerateMeasureError, match="reduce order"):
            gram_schmidt(eta, 2)

    def test_finite_support_degenerate(self):
        # single-atom jump law: eta has one support point, Hankel rank 1
        model = LevyModel.build(jump_part=CompoundPoisson(Fraction(2), Deterministic(Fraction(1, 2))))
        with pytest.raises(DegenerateMeasureError):
            orthogonalize(model, 2, exact=True)

    def test_float_order_cap(self, gamma_model):
        with pytest.raises(OrderError, match="capped"):
            orthogonalize(gamma_model, 9)

    def test_mu0_positive_required(self):
        with pytest.raises(DegenerateMeasureError):
            EtaMoments((0, 1, 2))


class TestInvertToB:
    def test_identity(self):
        eye = ((1,), (0, 1), (0, 0, 1))
        assert invert_to_b(eye) == eye

    def test_small_formulas(self):
        a = ((1,), (Fraction(2), 1), (Fraction(3), Fraction(5), 1))
        b = invert_to_b(a)
        assert b[1][0] == -Fraction(2)  # b21 = -a21
        assert b[2][0] == -Fraction(3) + Fraction(5) * Fraction(2)  # b31 = -a31 + a32 a21

    def test_matches_chain_sum_oracle(self, gamma_model):
        N = 6
        ortho = orthogonalize(gamma_model, N, exact=True)
        for n in range(1, N + 1):
            for k in range(1, n + 1):
                assert ortho.entry_b(n, k) == chain_sum_b(ortho.a, n, k)

    def test_matrix_product_identity_rational(self, gamma_model):
        N = 8
        ortho = orthogonalize(gamma_model, N, exact=True)
        for i in range(N):
            for j in range(i + 1):
                acc = sum(ortho.a[i][k] * ortho.b[k][j] for k in range(j, i + 1))
                assert acc == (1 if i == j else 0)

    def test_matrix_product_identity_float(self, gamma_model):
        N = 8
        ortho = orthogonalize(gamma_model, N)
        A = np.zeros((N, N))
        B = np.zeros((N, N))
        for i in range(N):
            A[i, : i + 1] = ortho.a[i]
            B[i, : i + 1] = ortho.b[i]
        assert np.max(np.abs(A @ B - np.eye(N))) <= 1e-12

    def test_numpy_inverse_oracle(self, gamma_model):
        N = 7
        ortho = orthogonalize(gamma_model, N)
        A = np.eye(N)
        for i in range(N):
            A[i, : i + 1] = ortho.a[i]
        Binv = np.linalg.inv(A)
        for n in range(N):
            for k in range(n + 1):
                assert ortho.b[n][k] == pytest.approx(Binv[n, k], abs=1e-13)


class TestBasisTransforms:
    def test_single_term_substitution(self):
        beta = Fraction(3, 7)
        a = ((1,), (-beta, 1))
        ortho = OrthoTriangular(a, invert_to_b(a), (Fraction(1), Fraction(0), Fraction(0)))
        mv = MomentVector((Fraction(0), Fraction(0)), Fraction(0), adjusted=True)
        exp = expand_like_single_term(mv)
        h = to_h_basis(exp, ortho)
        assert h.terms[(2,)].coeffs == (1,)
        assert h.terms[(1,)].coeffs == (beta,)

    def test_identity_ortho_is_noop(self, gamma_model):
        exp = expand(3, gamma_model, exact=True)
        eye = tuple(tuple(1 if i == j else 0 for j in range(i + 1)) for i in range(3))
        ortho = OrthoTriangular(eye, invert_to_b(eye), (Fraction(1),) * 5)
        assert terms_equal(to_h_basis(exp, ortho), exp)

    def test_pure_jump_gamma_n2(self, gamma_model):
        mv = sigma_adjust(moments(gamma_model, 2, exact=True))
        exp = expand(2, gamma_model, exact=True)
        ortho = orthogonalize(gamma_model, 2, exact=True)
        h = to_h_basis(exp, ortho)
        b21 = ortho.entry_b(2, 1)
        assert h.terms[(1, 1)].coeffs == (2,)
        assert h.terms[(2,)].coeffs == (1,)
        assert h.terms[(1,)] == TimePolynomial((b21, 2 * mv.moment(1)))
        assert h.constant == exp.constant

    def test_round_trip(self, gamma_model):
        ortho = orthogonalize(gamma_model, 4, exact=True)
        exp = expand(4, gamma_model, exact=True)
        assert terms_equal(to_y_basis(to_h_basis(exp, ortho), ortho), exp)

    def test_order_mismatch(self, gamma_model):
        exp = expand(4, gamma_model, exact=True)
        ortho = orthogonalize(gamma_model, 2, exact=True)
        with pytest.raises(OrderError, match="order mismatch"):
            to_h_basis(exp, ortho)

    def test_wrong_basis_rejected(self, gamma_model):
        exp = expand(2, gamma_model, exact=True)
        ortho = orthogonalize(gamma_model, 2, exact=True)
        h = to_h_basis(exp, ortho)
        with pytest.raises(OrderError, match="mismatch"):
            to_h_basis(h, ortho)


class TestExpandH:
    def test_float_mode_is_the_generic_change(self, mixed_model):
        fast = expand_h(5, mixed_model)
        slow = to_h_basis(expand(5, mixed_model), orthogonalize(mixed_model, 5))
        assert fast.terms == slow.terms and fast.constant == slow.constant

    def test_order_checked_before_the_moments(self, monkeypatch, gamma_model):
        def no_moments(*args, **kwargs):
            raise AssertionError("moments built")

        monkeypatch.setattr("levychaos.ortho.moments", no_moments)
        for n in (0, 17):
            with pytest.raises(OrderError):
                expand_h(n, gamma_model, exact=True)


def expand_like_single_term(mv):
    from levychaos.chaos import Expansion

    return Expansion(2, "Y", {(2,): TimePolynomial((1,))}, TimePolynomial.zero(), mv)


def test_json_shape(gamma_model):
    ortho = orthogonalize(gamma_model, 3, exact=True)
    data = ortho_to_json_dict(ortho)
    assert data["order"] == 3
    assert len(data["a"]) == 3 and len(data["a"][2]) == 3
    assert len(data["eta_moments"]) == 5
