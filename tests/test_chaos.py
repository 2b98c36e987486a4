import json
from fractions import Fraction

import numpy as np
import pytest

from levychaos.chaos import (
    Expansion,
    c_poly_closed,
    c_poly_recursive,
    expand,
    expand_from_moments,
    expansion_csv_rows,
    expansion_to_json_dict,
    expectation,
    jamshidian_expand,
    pi_coeff,
    prm_integrands,
    terms_equal,
)
from levychaos.combinatorics import index_set, multinomial
from levychaos.errors import BasisError, MomentError, OrderError
from levychaos.models import LevyModel, MomentVector, SyntheticMoments, moments, parse_model, sigma_adjust
from levychaos.paths import rng_for, sample_terminal_increments
from levychaos.timepoly import TimePolynomial

from conftest import random_rational_mv

# symbolic check vehicle: distinct primes make coefficient identities unambiguous
MV = MomentVector((Fraction(2), Fraction(3), Fraction(5), Fraction(7), Fraction(11)), Fraction(0), adjusted=True)
M1, M2, M3, M4 = MV.m[:4]


class TestConstantPolynomials:
    def test_anchor_k2(self):
        # m2 t + m1^2 t^2
        assert c_poly_recursive(2, MV).coeffs == (0, M2, M1**2)

    def test_anchor_k3(self):
        # m3 t + 3 m1 m2 t^2 + m1^3 t^3
        assert c_poly_recursive(3, MV).coeffs == (0, M3, 3 * M1 * M2, M1**3)

    def test_anchor_k4(self):
        # t^2 coefficient is 4 m1 m3 + 3 m2^2; t^3 is 6 m1^2 m2
        c4 = c_poly_recursive(4, MV)
        assert c4.coeffs[1] == M4
        assert c4.coeffs[2] == 4 * M1 * M3 + 3 * M2**2
        assert c4.coeffs[3] == 6 * M1**2 * M2
        assert c4.coeffs[4] == M1**4

    def test_k0_and_k1(self):
        assert c_poly_recursive(0, MV).coeffs == (1,)
        assert c_poly_closed(0, MV).coeffs == (1,)
        assert c_poly_recursive(1, MV).coeffs == (0, M1)

    def test_constant_vanishes_at_zero(self):
        for k in range(1, 6):
            assert c_poly_recursive(k, MV)(0) == 0

    def test_closed_partition_contributions(self):
        # partition (2,1) of k=3 contributes 3 m1 m2 t^2
        only_m1m2 = MomentVector((M1, M2, Fraction(0)), Fraction(0), adjusted=True)
        assert c_poly_closed(3, only_m1m2).coeffs[2] == 3 * M1 * M2
        # partition (2,2) of k=4 contributes 3 m2^2 t^2
        only_m2 = MomentVector((Fraction(0), M2, Fraction(0), Fraction(0)), Fraction(0), adjusted=True)
        assert c_poly_closed(4, only_m2).coeffs[2] == 3 * M2**2

    def test_recursive_equals_closed_random_rationals(self):
        rng = rng_for(99)
        for _ in range(20):
            mv = random_rational_mv(rng, 9)
            for k in range(10):
                assert c_poly_recursive(k, mv) == c_poly_closed(k, mv)

    def test_insufficient_moments(self):
        short = MomentVector((Fraction(1),), Fraction(0), adjusted=True)
        with pytest.raises(MomentError, match="insufficient"):
            c_poly_recursive(3, short)


class TestPiCoefficients:
    def test_anchor_pi_11_of_4(self):
        # 12 (m2 t + m1^2 t^2)
        assert pi_coeff((1, 1), 4, MV).coeffs == (0, 12 * M2, 12 * M1**2)

    def test_full_tuple_gives_one(self):
        for n in range(1, 6):
            assert pi_coeff((n,), n, MV).coeffs == (1,)

    def test_anchor_pi_1_of_2(self):
        assert pi_coeff((1,), 2, MV).coeffs == (0, 2 * M1)

    def test_symmetric_in_tuple_order(self):
        assert pi_coeff((1, 2), 5, MV) == pi_coeff((2, 1), 5, MV)
        assert pi_coeff((1, 2, 2), 7, MV) == pi_coeff((2, 2, 1), 7, MV)

    def test_zero_moments_indicator(self):
        zero = MomentVector((Fraction(0),) * 8, Fraction(0), adjusted=True)
        for k in range(1, 8):
            for i in range(1, k + 1):
                expected = TimePolynomial((1,)) if i == k else TimePolynomial.zero()
                assert pi_coeff((i,), k, zero) == expected

    def test_tuple_exceeds_order(self):
        with pytest.raises(OrderError, match="tuple exceeds order"):
            pi_coeff((3, 2), 4, MV)


class TestExpand:
    def test_pure_jump_n2_anchor(self):
        model = LevyModel.build(jump_part=SyntheticMoments((M2,)), drift=M1)
        exp = expand(2, model, exact=True)
        assert exp.terms[(1, 1)].coeffs == (2,)
        assert exp.terms[(1,)].coeffs == (0, 2 * M1)
        assert exp.terms[(2,)].coeffs == (1,)
        assert exp.constant.coeffs == (0, M2, M1**2)
        assert exp.moments.adjusted

    def test_n1_any_model(self, gamma_model):
        exp = expand(1, gamma_model)
        assert list(exp.terms) == [(1,)]
        assert exp.terms[(1,)].coeffs == (1.0,)
        assert exp.constant.coeffs == (0, 0.5)

    def test_brownian_only_n2(self):
        model = LevyModel(1, 0)
        exp = expand(2, model, exact=True)
        assert exp.terms[(1, 1)].coeffs == (2,)
        assert exp.terms[(1,)].is_zero()
        assert exp.terms[(2,)].coeffs == (1,)
        assert exp.constant.coeffs == (0, 1)  # E[W_t^2] = t

    def test_keys_are_index_set(self, gamma_model):
        exp = expand(5, gamma_model)
        assert list(exp.terms) == index_set(5)

    def test_adjustment_applied_once(self, mixed_model):
        exp = expand(2, mixed_model, exact=True)
        assert exp.moments.moment(2) == Fraction(251, 10000)  # m2 + sigma^2 once

    def test_expand_requires_adjusted(self):
        raw = moments(LevyModel(1, 0), 3)
        with pytest.raises(BasisError, match="sigma-adjusted"):
            expand_from_moments(2, raw)


class TestPiPerMultiset:
    """The table shares one Pi per multiset; pi_coeff, per tuple, is the oracle."""

    @pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_term_equals_pi_coeff(self, n, exact):
        mv = sigma_adjust(moments(parse_model("brownian:sigma=1/10+gamma:a=7/3,b=11/5"), max(n, 2), exact=exact))
        exp = expand_from_moments(n, mv)
        assert list(exp.terms) == index_set(n)
        for theta, poly in exp.terms.items():
            oracle = pi_coeff(theta, n, mv)
            assert poly == oracle, theta
            assert list(map(type, poly.coeffs)) == list(map(type, oracle.coeffs))  # serialized alike

    def test_random_rational_moments(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            mv = random_rational_mv(rng, max(n, 2))
            exp = expand_from_moments(n, mv)
            assert all(poly == pi_coeff(theta, n, mv) for theta, poly in exp.terms.items())

    def test_permutations_share_one_polynomial(self, gamma_model):
        exp = expand(12, gamma_model)
        assert exp.terms[(1, 2, 3)] is exp.terms[(3, 1, 2)] is exp.terms[(2, 3, 1)]
        assert exp.terms[(1, 2)] is not exp.terms[(1, 1)]
        # one polynomial per partition of 1..12: p(1) + ... + p(12) = 271
        assert len({id(p) for p in exp.terms.values()}) == 271

    def test_jamshidian_is_the_exact_sum_slice_of_the_index_set(self):
        for n in range(1, 11):
            exp = jamshidian_expand(n)
            assert list(exp.terms) == [t for t in index_set(n) if sum(t) == n]
            assert all(p.coeffs == (multinomial(t),) for t, p in exp.terms.items())

    def test_jamshidian_keeps_the_cap(self):
        with pytest.raises(OrderError, match="order too large: 17 > cap 16"):
            jamshidian_expand(17)
        assert len(jamshidian_expand(13).terms) == 2**12


class TestExpectation:
    def test_brownian_variance(self):
        assert expectation(2, LevyModel(1, 0), exact=True).coeffs == (0, 1)

    def test_centered_third_moment(self):
        model = LevyModel.build(sigma2=0, jump_part=SyntheticMoments((Fraction(0), M3)))
        assert expectation(3, model, exact=True).coeffs == (0, M3)

    def test_gamma_n4_against_monte_carlo(self, gamma_model):
        poly = expectation(4, gamma_model)
        assert poly.coeffs[1] == pytest.approx(10 * 6 / 20**4)
        xs = sample_terminal_increments(gamma_model, 0.5, 60_000, seed=7) ** 4
        se = xs.std(ddof=1) / np.sqrt(len(xs))
        assert abs(xs.mean() - poly(0.5)) < 3 * se


class TestJamshidian:
    def test_n2(self):
        exp = jamshidian_expand(2)
        assert {t: p.coeffs for t, p in exp.terms.items()} == {(1, 1): (2,), (2,): (1,)}
        assert exp.constant.is_zero()
        assert exp.basis == "NONCOMPENSATED"

    def test_n3_direct_multinomials(self):
        exp = jamshidian_expand(3)
        assert {t: p.coeffs for t, p in exp.terms.items()} == {
            (1, 1, 1): (6,),
            (1, 2): (3,),
            (2, 1): (3,),
            (3,): (1,),
        }

    def test_keys_have_exact_sum(self):
        exp = jamshidian_expand(6)
        assert all(sum(t) == 6 for t in exp.terms)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_zeroed_expand(self, n):
        zero = MomentVector((Fraction(0),) * max(n, 2), Fraction(0), adjusted=True)
        assert terms_equal(expand_from_moments(n, zero), jamshidian_expand(n))


class TestPrmDescriptors:
    def test_coefficients_shared_with_expansion(self, gamma_model):
        exp = expand(2, gamma_model)
        descs = {d.tuple: d for d in prm_integrands(2, gamma_model)}
        assert descs[(1, 1)].coefficient == exp.terms[(1, 1)]

    def test_n1_single_descriptor(self, gamma_model):
        descs = prm_integrands(1, gamma_model)
        assert len(descs) == 1
        assert descs[0].tuple == (1,)
        assert descs[0].coefficient.coeffs == (1.0,)

    def test_n3_coefficient_matches_pi(self, gamma_model):
        mv = sigma_adjust(moments(gamma_model, 3))
        descs = {d.tuple: d for d in prm_integrands(3, gamma_model)}
        assert descs[(2, 1)].coefficient == pi_coeff((2, 1), 3, mv)

    def test_coefficient_never_involves_start_time(self, gamma_model):
        # type-level: coefficients are elapsed-time polynomials of bounded degree
        for d in prm_integrands(4, gamma_model):
            assert isinstance(d.coefficient, TimePolynomial)
            assert len(d.coefficient.coeffs) <= 5


class TestSerialization:
    def test_json_round_trip(self, gamma_model):
        exp = expand(3, gamma_model, exact=True)
        data = json.loads(json.dumps(expansion_to_json_dict(exp)))

        def scalar(x):  # exact values are written as "p/q" strings
            return Fraction(x) if isinstance(x, str) else x

        back = Expansion(
            data["order"],
            data["basis"],
            {tuple(item["tuple"]): TimePolynomial(map(scalar, item["poly"])) for item in data["terms"]},
            TimePolynomial(map(scalar, data["constant"])),
            MomentVector(tuple(map(scalar, data["moments"])), scalar(data["sigma2"]), data["sigma_adjusted"]),
        )
        assert terms_equal(back, exp) and back.moments == exp.moments
        assert back.order == 3 and back.basis == "Y"

    def test_json_is_byte_stable(self, gamma_model):
        a = json.dumps(expansion_to_json_dict(expand(4, gamma_model)))
        b = json.dumps(expansion_to_json_dict(expand(4, gamma_model)))
        assert a == b

    def test_csv_rows_shape(self, gamma_model):
        rows = expansion_csv_rows(expand(2, gamma_model, exact=True))
        assert rows[0] == ["tuple", "coeffs"]
        assert len(rows) == 2 + len(index_set(2))  # header + terms + constant
