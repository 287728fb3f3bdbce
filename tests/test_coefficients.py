import math
import re
import time
from fractions import Fraction

import pytest

from ergm_cluster import (
    CoefficientTable,
    abar_recursion,
    banach_norm,
    build_interaction,
    coefficient_tail,
    generating_function_check,
    kp_certify,
    load_motif,
    optimal_M,
    radius_and_tail,
    region_bound,
)
from ergm_cluster.coefficients import (
    COEFFICIENT_GUARD,
    _gamma_table,
    _satisfies_identity,
    gamma_closed_form,
)

from oracles import gamma_by_compositions, identity_by_powering


class TestOptimalM:
    def test_pair_interactions(self):
        # p = 2: log M = (sqrt(3) - 1) / 2
        assert optimal_M(2) == pytest.approx(math.exp((math.sqrt(3) - 1) / 2), abs=1e-15)
        assert optimal_M(2) == pytest.approx(1.4419918742399591, abs=1e-15)

    def test_triple_interactions(self):
        p = 3
        want = math.exp((-p + math.sqrt(5 * p * p - 4 * p)) / (2 * p * (p - 1)))
        assert optimal_M(3) == pytest.approx(want, abs=1e-15)

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            optimal_M(1)

    def test_always_above_one(self):
        for p in range(2, 7):
            assert optimal_M(p) > 1.0


class TestRegionBound:
    def test_reference_value(self):
        assert region_bound(2, 3, optimal_M(2)) == pytest.approx(
            0.0026846371081645369, abs=1e-18)

    def test_matches_expression(self):
        for p in (2, 3):
            for m in (2, 3, 4):
                M = optimal_M(p)
                lm = math.log(M)
                rhs = lm * (p - 1) ** p / (2 * (M * p) ** p * (1 + (p - 1) * lm))
                want = min(rhs, 0.5) / (m * (m - 1))
                assert region_bound(p, m, M) == pytest.approx(want, rel=1e-15)

    def test_vanishes_at_extremes(self):
        assert region_bound(2, 3, 1.0 + 1e-12) < 1e-12
        assert region_bound(2, 3, 1e9) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            region_bound(1, 3, 2.0)
        with pytest.raises(ValueError):
            region_bound(2, 1, 2.0)
        with pytest.raises(ValueError):
            region_bound(2, 3, 1.0)


class TestGamma:
    def test_closed_form_matches_recursion(self):
        for p in (1, 2, 3, 4):
            table = abar_recursion(p, 0.1, 1.5, n_max=12)
            for n in range(1, 13):
                assert table.gamma[n] == gamma_closed_form(p, n)

    def test_matches_compositions_recursion(self):
        for p in range(1, 7):
            assert _gamma_table(p, 12) == gamma_by_compositions(p, 12)

    def test_float_quotient_is_the_rounded_rational(self):
        # The tails read gamma_n as one int/int division, which rounds correctly.
        for p in range(1, 9):
            for n in range(1, COEFFICIENT_GUARD + 1):
                assert math.comb(p * n, n - 1) / n == float(gamma_closed_form(p, n))

    def test_catalan_numbers_for_pairs(self):
        table = abar_recursion(2, 0.1, 1.5, n_max=6)
        assert table.gamma[1:] == (1, 2, 5, 14, 42, 132)

    def test_first_coefficient_is_c(self):
        table = abar_recursion(3, 0.07, 1.3, n_max=4)
        assert table.abar(1) == pytest.approx(2 * 0.07 * 1.3 ** 3, rel=1e-15)

    def test_generating_identity(self):
        for p in (1, 2, 3):
            assert generating_function_check(p, n_max=10)

    def test_identity_rejects_perturbed_sequence(self):
        good = (Fraction(0),) + tuple(gamma_closed_form(2, n) for n in range(1, 9))
        bad = good[:4] + (good[4] + 1,) + good[5:]
        assert _satisfies_identity(2, good)
        assert not _satisfies_identity(2, bad)

    @pytest.mark.parametrize("n_max", [1, 2, 5, 30, 64])
    def test_identity_agrees_with_powering(self, n_max):
        for p in range(13):
            good = (Fraction(0),) + tuple(Fraction(math.comb(p * n, n - 1), n)
                                          for n in range(1, n_max + 1))
            k = min(n_max, 3)
            bad = good[:k] + (good[k] + Fraction(1, 7),) + good[k + 1:]
            assert _satisfies_identity(p, good) is identity_by_powering(p, good) is True
            assert _satisfies_identity(p, bad) is identity_by_powering(p, bad) is False

    @pytest.mark.parametrize("p", [2, 7, 100])
    def test_identity_holds_at_the_deepest_table(self, p):
        start = time.perf_counter()
        assert generating_function_check(p, COEFFICIENT_GUARD)
        assert time.perf_counter() - start < 1.0

    def test_integer_growth_bound(self):
        # gamma_n (p-1)^(1 + (p-1) n) <= p^(p n), exactly in integers
        for p in (2, 3, 4):
            for n in range(1, 20):
                g = gamma_closed_form(p, n)
                assert g.denominator == 1 or (g * n).denominator == 1
                lhs = g * (p - 1) ** (1 + (p - 1) * n)
                assert lhs <= Fraction(p ** (p * n))


class TestTail:
    def test_zero_norm(self):
        radius, tail = radius_and_tail(2, 0.0, 1.5)
        assert math.isinf(radius)
        assert tail(1) == 0.0

    def test_geometric_ratio(self):
        p, norm, M = 2, 0.001, optimal_M(2)
        radius, tail = radius_and_tail(p, norm, M)
        q = 2 * norm * (M * p) ** p / (p - 1) ** (p - 1)
        assert radius > 0
        for n0 in (1, 3, 7):
            assert tail(n0 + 1) == pytest.approx(q * tail(n0), rel=1e-12)

    def test_divergence(self):
        p, M = 2, optimal_M(2)
        norm = 1.01 * (p - 1) ** (p - 1) / (2 * (M * p) ** p)
        _, tail = radius_and_tail(p, norm, M)
        assert math.isinf(tail(5))

    def test_requires_pair_interactions(self):
        with pytest.raises(ValueError):
            radius_and_tail(1, 0.1, 2.0)


class TestCoefficientTail:
    def test_bounds_true_remainder(self):
        p, norm, M = 2, 0.002, optimal_M(2)
        table = abar_recursion(p, norm, M, n_max=30)
        for from_order in (1, 4, 30):
            bound = coefficient_tail(table, from_order)
            # the bound must cover every neglected tabulated coefficient
            left = sum(table.abar(k) for k in range(from_order + 1, 31))
            assert left <= bound + 1e-18

    def test_certificate_tail_is_pinned_at_the_budget(self):
        # Triangle at n = 5 and the region's beta budget: the bits the tail had
        # when it summed float(gamma) from the exact table.
        M = optimal_M(3)
        K = build_interaction([load_motif("triangle")], [region_bound(3, 3, M)], 5)
        tail = kp_certify(K, M, head_links=2).tail
        assert tail.hex() == "0x1.39d6b3ca2375fp-12"
        assert coefficient_tail(abar_recursion(3, banach_norm(K), M, 30), 2) == tail

    def test_single_site_geometric(self):
        # p = 1 trees are paths, the series is plain geometric in c
        norm, M = 0.05, 2.0
        table = abar_recursion(1, norm, M, n_max=10)
        c = 2 * norm * M
        want = c ** 2 / (1 - c)
        assert coefficient_tail(table, 1) == pytest.approx(want, rel=1e-12)

    def test_divergent_series(self):
        p, M = 2, optimal_M(2)
        norm = (p - 1) ** (p - 1) / (2 * (M * p) ** p)
        table = abar_recursion(p, norm, M, n_max=8)
        assert math.isinf(coefficient_tail(table, 3))
        # c^2 is past the float range at c = 4.5e200: divergent before any power.
        assert coefficient_tail(abar_recursion(2, 1e200, 1.5, 3), 1) == math.inf

    def test_validation(self):
        table = abar_recursion(2, 0.01, 1.5, n_max=5)
        with pytest.raises(ValueError):
            coefficient_tail(table, -1)
        _, tail = radius_and_tail(2, 0.01, 1.5)
        with pytest.raises(ValueError, match="^tail order must be nonnegative$"):
            tail(-1)

    def test_huge_p_overflows_before_the_exact_powers(self):
        # p^p fits a float up to p = 143; at p = 10^6 the exact integers p^p
        # and (p-1)^(p-1) would take seconds to build before the overflow.
        assert math.isfinite(coefficient_tail(abar_recursion(143, 1e-300, 1.0001, 5), 1))
        with pytest.raises(OverflowError):
            coefficient_tail(abar_recursion(144, 1e-300, 1.0001, 5), 1)
        table = abar_recursion(1000000, 1e-12, 1.000001, 5)
        start = time.perf_counter()
        with pytest.raises(OverflowError):
            coefficient_tail(table, 1)
        assert time.perf_counter() - start < 1.0


class TestTableGuards:
    def test_order_window(self):
        with pytest.raises(ValueError):
            abar_recursion(2, 0.1, 1.5, n_max=0)
        with pytest.raises(ValueError):
            abar_recursion(2, 0.1, 1.5, n_max=65)
        table = abar_recursion(2, 0.1, 1.5, n_max=3)
        for n in (0, 4):
            with pytest.raises(ValueError, match=rf"^order {n} outside table 1\.\.3$"):
                table.abar(n)
        with pytest.raises(ValueError, match="^order must be positive$"):
            gamma_closed_form(2, 0)
        with pytest.raises(ValueError, match="^edge count p must be a positive integer, got 0$"):
            abar_recursion(0, 0.1, 1.5)

    def test_negative_norm(self):
        with pytest.raises(ValueError):
            abar_recursion(2, -0.1, 1.5)

    # (M p)^p overflows in the power at M = 1e300, in the product M p at
    # M = 1.7e308, and at every M > 1 from p = 144 on.
    @pytest.mark.parametrize("p, M", [(2, 1e300), (2, 1.7e308), (144, 1.0001)], ids=str)
    def test_majorant_scale_past_the_float_range_named(self, p, M):
        message = "^" + re.escape(f"(M p)^p is past the float range at M = {M!r}, p = {p}") + "$"
        with pytest.raises(OverflowError, match=message):
            region_bound(p, 3, M)
        with pytest.raises(OverflowError, match=message):
            radius_and_tail(p, 0.001, M)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=str)
    def test_non_finite_norm_refused(self, x):
        with pytest.raises(ValueError, match="norm"):
            abar_recursion(2, x, 1.5)
        with pytest.raises(ValueError, match="norm"):
            radius_and_tail(2, x, 1.5)

    @pytest.mark.parametrize("x", [math.nan, math.inf], ids=str)
    def test_non_finite_weight_base_refused(self, x):
        with pytest.raises(ValueError, match=f"weight base M must be finite, got {x}"):
            region_bound(2, 3, x)
        with pytest.raises(ValueError, match="weight base M must be finite"):
            radius_and_tail(2, 0.001, x)
        with pytest.raises(ValueError, match="weight base M must be finite"):
            abar_recursion(2, 0.1, x)
        K = build_interaction([load_motif("two-star")], [0.01], 4)
        with pytest.raises(ValueError, match="weight base M must be finite"):
            kp_certify(K, x)

    def test_abar_past_the_float_range_refused(self):
        # gamma_3 c^3 overflows in the product at c = 5e102, and c^2 already
        # in the power at c = 4.5e200.
        table = abar_recursion(2, 1.2e102, optimal_M(2), 3)
        assert math.isfinite(table.abar(2))
        with pytest.raises(OverflowError, match=r"^abar_3 = gamma_3 c\^3 is past the float"):
            table.abar(3)
        table = abar_recursion(2, 1e200, 1.5, 3)
        assert math.isfinite(table.abar(1))
        with pytest.raises(OverflowError, match=r"^abar_2 = gamma_2 c\^2 is past the float"):
            table.abar(2)

    def test_table_shape(self):
        table = abar_recursion(2, 0.01, 1.7, n_max=9)
        assert isinstance(table, CoefficientTable)
        assert table.n_max == 9
        assert len(table.gamma) == 10  # 0 pad plus orders 1..9
