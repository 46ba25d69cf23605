"""Weighted-space norms, the multiplication residual, truncation studies."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from diskabc import (NumericalFailure, PolyC, TruncationSchedule, UNIT_DISK,
                     blaschke_norm_sq, dalpha_norm_coeff,
                     division_monotonicity_check, from_zeros, product_norm_sq,
                     r_alpha, r_alpha_area, truncation_study,
                     verify_theorem_41)
from diskabc.abc_verifier import gapped_monomial_family, monomial_family
from families import random_blaschke, random_coeff_polyc

ALPHAS = (0.25, 0.5, 0.75)

# D_alpha norms of the geometric_boundary truncations, K = 1..12, from the
# partial-fraction/polylog closed form in mpmath (perfbench/oracles.py)
TRUNCATION_NORMS = (Path(__file__).resolve().parent.parent / "perfbench"
                    / "truncation_norms.json")


def ref_ratio_constant_wronskian(n, alpha):
    # LCM is z^n, radical is z, lambda_alpha = 0, mu = 1
    return n ** alpha / n


def ref_ratio_gapped(n, m, alpha):
    # LCM is z^m, radical is z, lambda_alpha^2 = (m - n)^alpha, mu = 1
    return m ** alpha / ((m - n) ** alpha + n)


class TestBlaschkeNorm:
    def test_monomials_exact(self):
        for m in (1, 2, 5, 12):
            for alpha in ALPHAS:
                b = from_zeros(UNIT_DISK, [(0, m)])
                assert blaschke_norm_sq(b, alpha) == \
                    pytest.approx(m ** alpha, rel=1e-12)

    def test_single_zero_series_oracle(self):
        # b_a = -a + (1 - a^2) sum_{k>=1} a^{k-1} z^k for real a
        for a, alpha in ((0.3, 0.25), (0.6, 0.5), (0.85, 0.75)):
            ks = np.arange(1, 400000)
            oracle = float(np.sum(ks ** alpha * (1 - a * a) ** 2
                                  * a ** (2 * (ks - 1))))
            b = from_zeros(UNIT_DISK, [(a, 1)])
            assert blaschke_norm_sq(b, alpha) == pytest.approx(oracle, rel=1e-9)

    def test_constant_is_zero(self):
        assert blaschke_norm_sq(from_zeros(UNIT_DISK, []), 0.5) == 0.0

    def test_product_norm_matches_convolution_oracle(self):
        # f * z^m shifts coefficients, so the norm is a finite exact sum
        f = PolyC((1.0, -0.5j, 0.25))
        b = from_zeros(UNIT_DISK, [(0, 3)])
        for alpha in ALPHAS:
            want = sum((k + 3) ** alpha * abs(c) ** 2
                       for k, c in enumerate(f.coeffs))
            assert product_norm_sq(f, b, alpha) == pytest.approx(want, rel=1e-11)


class TestRAlpha:
    def test_unit_times_z(self):
        assert r_alpha(PolyC((1,)), from_zeros(UNIT_DISK, [(0, 1)]), 0.5) == \
            pytest.approx(1.0, rel=1e-12)

    def test_unit_times_z2(self):
        assert r_alpha(PolyC((1,)), from_zeros(UNIT_DISK, [(0, 2)]), 0.5) == \
            pytest.approx(math.sqrt(2), rel=1e-12)

    def test_nonnegative_on_random_family(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            f = random_coeff_polyc(rng, 6)
            b = random_blaschke(rng, max_distinct=4, max_mult=2, max_modulus=0.8)
            alpha = float(rng.choice(ALPHAS))
            assert r_alpha(f, b, alpha) >= -1e-9

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            r_alpha(PolyC((1,)), from_zeros(UNIT_DISK, [(0, 1)]), 1.0)


class TestRAlphaArea:
    def test_single_zero_closed_form(self):
        # theta = z, f = 1: the integral collapses to 1/(1 - alpha)
        for alpha in ALPHAS:
            got = r_alpha_area(PolyC((1,)), from_zeros(UNIT_DISK, [(0, 1)]), alpha)
            assert got == pytest.approx(1.0 / (1.0 - alpha), rel=1e-9)

    def test_constant_inner_factor(self):
        assert r_alpha_area(PolyC((1,)), from_zeros(UNIT_DISK, []), 0.5) == \
            pytest.approx(0.0, abs=1e-12)

    def test_zero_function(self):
        assert r_alpha_area(PolyC(), from_zeros(UNIT_DISK, [(0, 1)]), 0.5) == \
            pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bracket_stable_across_seeds(self, alpha):
        # simple zeros well inside the disk and low degrees: near-boundary or
        # multiple zeros thin out the ratio's upper tail so much that a
        # 100-draw bracket stops being reproducible
        def bracket(seed):
            rng = np.random.default_rng(seed)
            ratios = []
            for _ in range(100):
                f = random_coeff_polyc(rng, 3)
                b = random_blaschke(rng, max_distinct=3, max_mult=1,
                                    max_modulus=0.6)
                ratios.append(r_alpha(f, b, alpha) / r_alpha_area(f, b, alpha))
            return min(ratios), max(ratios)

        lo1, hi1 = bracket(303)
        lo2, hi2 = bracket(404)
        assert 0 < lo1 <= hi1
        assert abs(lo1 - lo2) <= 0.1 * lo1
        assert abs(hi1 - hi2) <= 0.1 * hi1
        print(f"alpha={alpha}: residual/integral bracket "
              f"[{min(lo1, lo2):.4f}, {max(hi1, hi2):.4f}]")

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_norm_vs_integral_bracket(self, alpha):
        # the f = 1 specialization: ||theta||^2 against its area integral,
        # same two-seed bracket discipline as the general case
        one = PolyC((1,))

        def bracket(seed):
            rng = np.random.default_rng(seed)
            ratios = []
            for _ in range(100):
                b = random_blaschke(rng, max_distinct=3, max_mult=1,
                                    max_modulus=0.6)
                ratios.append(blaschke_norm_sq(b, alpha)
                              / r_alpha_area(one, b, alpha))
            return min(ratios), max(ratios)

        lo1, hi1 = bracket(505)
        lo2, hi2 = bracket(606)
        assert 0 < lo1 <= hi1
        assert abs(lo1 - lo2) <= 0.1 * lo1
        assert abs(hi1 - hi2) <= 0.1 * hi1


class TestDivisionMonotonicity:
    def test_basic(self):
        assert division_monotonicity_check(
            PolyC((1, 1)), from_zeros(UNIT_DISK, [(0, 1)]), 0.5)

    def test_constant_function(self):
        assert division_monotonicity_check(
            PolyC((5,)), from_zeros(UNIT_DISK, [(0.4, 2)]), 0.25)

    def test_random_family(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            f = random_coeff_polyc(rng, 6)
            b = random_blaschke(rng, max_distinct=4, max_mult=2, max_modulus=0.8)
            assert division_monotonicity_check(f, b, float(rng.choice(ALPHAS)))


class TestVerifyTheorem41:
    def test_constant_wronskian_reference(self):
        report = verify_theorem_41(monomial_family(2), 0.5)
        assert report.lambda_alpha == 0.0 and report.mu == 1.0
        assert report.norm_B_lcm_sq == pytest.approx(2 ** 0.5, rel=1e-10)
        assert report.norm_B_rad_sq == pytest.approx(1.0, rel=1e-10)
        assert report.ratio == pytest.approx(
            ref_ratio_constant_wronskian(2, 0.5), abs=1e-4)

    def test_gapped_reference(self):
        report = verify_theorem_41(gapped_monomial_family(2, 5), 0.5)
        assert report.lambda_alpha ** 2 == pytest.approx(3 ** 0.5, abs=1e-9)
        assert report.mu == pytest.approx(1.0, abs=1e-12)
        assert report.ratio == pytest.approx(ref_ratio_gapped(2, 5, 0.5), abs=1e-4)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_reference_closed_forms_all_alphas(self, alpha):
        r1 = verify_theorem_41(monomial_family(2), alpha)
        r2 = verify_theorem_41(gapped_monomial_family(2, 5), alpha)
        assert r1.ratio == pytest.approx(
            ref_ratio_constant_wronskian(2, alpha), abs=1e-4)
        assert r2.ratio == pytest.approx(ref_ratio_gapped(2, 5, alpha), abs=1e-4)

    def test_rhs_monotone_in_term_count(self):
        # with everything else fixed, the bound's right side grows with n
        report = verify_theorem_41(gapped_monomial_family(2, 5), 0.5)
        rhs = [report.lambda_alpha ** 2 + n * report.mu ** 2 * report.norm_B_rad_sq
               for n in range(1, 6)]
        assert all(a <= b for a, b in zip(rhs, rhs[1:]))


class TestTruncationStudy:
    def test_origin_rule_is_monomial(self):
        rows = truncation_study(TruncationSchedule("origin", (3, 7)), 0.5)
        assert [r.K for r in rows] == [3, 7]
        assert rows[0].norm_sq == pytest.approx(3 ** 0.5, rel=1e-12)
        assert rows[1].norm_sq == pytest.approx(7 ** 0.5, rel=1e-12)

    def test_geometric_rule(self):
        alpha = 0.5
        rows = truncation_study(
            TruncationSchedule("geometric_boundary", (4, 8)), alpha)
        for row in rows:
            want = sum(2.0 ** (-k * (1 - alpha)) for k in range(1, row.K + 1))
            assert row.criterion_sum == pytest.approx(want, rel=1e-12)
            want_b = sum(2.0 ** -k for k in range(1, row.K + 1))
            assert row.blaschke_sum == pytest.approx(want_b, rel=1e-12)
        assert rows[0].norm_sq < rows[1].norm_sq

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_geometric_rule_matches_mpmath(self, alpha):
        # zeros up to 1 - 2^-12 from the circle: the coefficient tail only
        # reaches rel 1e-9 when the adaptive cutoff meets its own target
        want = json.loads(TRUNCATION_NORMS.read_text())[str(alpha)]
        rows = truncation_study(
            TruncationSchedule("geometric_boundary", tuple(range(1, 13))), alpha)
        assert [r.K for r in rows] == list(range(1, 13))
        for row in rows:
            assert row.norm_sq == pytest.approx(want[str(row.K)], rel=1e-9)

    def test_empty_schedule(self):
        assert truncation_study(
            TruncationSchedule("geometric_boundary", ()), 0.5) == []

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            truncation_study(TruncationSchedule("nope", (2,)), 0.5)

    def test_rule_validation(self):
        # 1 - 2^-54 rounds to 1.0: the geometric rule leaves the open disk
        bad = TruncationSchedule("geometric_boundary", (54,))
        with pytest.raises(ValueError):
            truncation_study(bad, 0.5)
