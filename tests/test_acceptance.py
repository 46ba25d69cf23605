"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS line (visible with ``pytest -s`` or in verbose
failure reports); a failed assertion marks the criterion failed.  Runtime
budgets are asserted with ``time.perf_counter`` around the whole criterion.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from diskabc import (DiskDomain, PolyC, PolyQ,
                     TruncationSchedule, UNIT_DISK, blaschke_norm_sq,
                     boundary_integral, build_system,
                     dalpha_norm_coeff, dirichlet_norm_area,
                     division_monotonicity_check, from_zeros, limit_R_study,
                     r_alpha, r_alpha_area, verify, verify_theorem_41,
                     verify_theorem_A, verify_theorem_B,
                     wronskian_degree_bound_check)
from diskabc.abc_verifier import gapped_monomial_family, monomial_family
from families import (random_admissible_system, random_blaschke,
                      random_coeff_polyc, random_coprime_triple,
                      random_independent_tuple)
from references import AnalyticProduct, dalpha_norm_area

from fractions import Fraction


def report(k, text):
    print(f"[acceptance] criterion {k}: PASS  ({text})")


def test_criterion_01_equality_family_constant_wronskian():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        cert = verify(build_system(monomial_family(n, 0.1), UNIT_DISK))
        assert cert.N_lcm == n and cert.N_rad == 1
        assert cert.lambda_ == 0.0 and cert.kappa == 0.0
        assert abs(cert.mu - 1.0) <= 1e-9
        assert abs(cert.slack_21) <= 1e-6 and abs(cert.slack_22) <= 1e-6
        assert cert.pass_21 and cert.pass_22 and cert.divisibility_ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"equality at n=1,2,3 with zero slack, {elapsed:.2f}s")


def test_criterion_02_equality_family_gapped():
    t0 = time.perf_counter()
    cert = verify(build_system(gapped_monomial_family(2, 5, 0.1), UNIT_DISK))
    assert abs(cert.lambda_ ** 2 - 3.0) <= 1e-6
    assert abs(cert.kappa - 3.0) <= 1e-6
    assert abs(cert.mu - 1.0) <= 1e-9
    assert cert.lhs == 5
    assert abs(cert.rhs_21 - 5.0) <= 1e-6 and abs(cert.rhs_22 - 5.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"lambda^2 = kappa = 3, equality at lhs 5, {elapsed:.2f}s")


def test_criterion_03_derivative_integral_counts_zeros():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst = 0.0
    for dom in (UNIT_DISK, DiskDomain(1 + 0.5j, 2.0)):
        for _ in range(50):
            b = random_blaschke(rng, dom, max_distinct=8, max_mult=3,
                                max_modulus=0.85)
            n = b.n_zeros
            area = dirichlet_norm_area(b, dom)
            bdry = boundary_integral(b.boundary_derivative_modulus, dom)
            worst = max(worst, abs(area - n), abs(bdry - n))
            assert abs(area - n) <= 1e-6 and abs(bdry - n) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"100 products, worst deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_multiplicative_norm_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1004)
    from families import random_smooth_pair
    for _ in range(50):
        f, b = random_smooth_pair(rng, f_degree=6, max_distinct=5)
        lhs = dirichlet_norm_area(AnalyticProduct(f, b), UNIT_DISK)
        rhs = dirichlet_norm_area(f, UNIT_DISK) + boundary_integral(
            lambda z: np.abs(f(z)) ** 2 * b.boundary_derivative_modulus(z),
            UNIT_DISK)
        assert lhs == pytest.approx(rhs, rel=1e-6)
    for _ in range(50):
        f, b = random_smooth_pair(rng, f_degree=6, max_distinct=5)
        prod_ = AnalyticProduct(f, b)
        lhs = boundary_integral(lambda z: np.abs(prod_.derivative_eval(z)),
                                UNIT_DISK)
        rhs = boundary_integral(
            lambda z: np.abs(f(z)) * b.boundary_derivative_modulus(z),
            UNIT_DISK)
        assert lhs >= rhs - 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, f"50 product-norm identities and 50 derivative bounds, {elapsed:.1f}s")


def test_criterion_05_certificate_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    for _ in range(100):
        system = random_admissible_system(rng, n=None, max_degree=4)
        cert = verify(system)
        assert cert.hypothesis_ok
        assert cert.pass_21 and cert.pass_22 and cert.divisibility_ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(5, f"100 random systems, zero failures, {elapsed:.1f}s")


def test_criterion_06_three_term_exact_corpus():
    t0 = time.perf_counter()

    def q(*coeffs):
        return PolyQ.from_rationals(coeffs)

    derived = [
        (q(0, 0, 1), q(1, 0, -1), q(1)),
        (q(1, 0, -2, 0, 1), q(0, 0, 4), q(1, 0, 2, 0, 1)),
    ]
    rng = np.random.default_rng(1006)
    cases = derived + [random_coprime_triple(rng, max_degree=4)
                       for _ in range(100)]
    for a, b, c in cases:
        r = verify_theorem_A(a, b, c)
        assert r.holds and r.max_degree < r.n_distinct
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(6, f"{len(cases)} exact three-term instances, strict inequality, "
              f"{elapsed:.1f}s")


def test_criterion_07_multi_term_exact_corpus():
    t0 = time.perf_counter()

    def q(*coeffs):
        return PolyQ.from_rationals(coeffs)

    derived = [q(1), q(0, 1), q(1, -2, 1)]
    r = verify_theorem_B(derived)
    assert r.holds
    assert wronskian_degree_bound_check(derived)
    rng = np.random.default_rng(1007)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        ps = random_independent_tuple(rng, n, max_degree=3)
        assert verify_theorem_B(ps).holds
        assert wronskian_degree_bound_check(ps)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, f"51 exact multi-term instances plus degree bounds, {elapsed:.1f}s")


def test_criterion_08_large_radius_limit():
    t0 = time.perf_counter()
    # exact Wronskian z^3 + z from (1, z^4/4 + z^2/2)
    ps = [PolyQ.from_rationals([1]),
          PolyQ.from_rationals([0, 0, Fraction(1, 2), 0, Fraction(1, 4)])]
    study = limit_R_study(ps, [10, 40, 160, 640, 2560])
    assert study.kappa_limit_expected == 3
    kerr = [abs(k - 3.0) for k in study.kappa_values]
    merr = [abs(m - 1.0) for m in study.mu_values]
    assert all(a > b for a, b in zip(kerr, kerr[1:]))
    assert all(a > b for a, b in zip(merr, merr[1:]))
    assert kerr[-1] < 0.01 and merr[-1] < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, f"kappa error falls {kerr[0]:.1e} -> {kerr[-1]:.1e}, "
              f"mu error {merr[0]:.1e} -> {merr[-1]:.1e}, {elapsed:.1f}s")


def test_criterion_09_weighted_space_suite():
    t0 = time.perf_counter()
    alphas = (0.25, 0.5, 0.75)

    # monomial norms are exact
    for m in range(1, 21):
        for alpha in alphas:
            assert dalpha_norm_coeff(PolyC.monomial(m), alpha) == m ** alpha
            b = from_zeros(UNIT_DISK, [(0, m)])
            assert blaschke_norm_sq(b, alpha) == \
                pytest.approx(m ** alpha, rel=1e-10)

    # alpha = 1: area route and coefficient route coincide
    rng = np.random.default_rng(1009)
    for _ in range(5):
        f = random_coeff_polyc(rng, 6)
        assert dalpha_norm_area(f, 1.0) == \
            pytest.approx(dalpha_norm_coeff(f, 1.0), rel=1e-9)

    # inner-factor monotonicity on 500 random instances
    for _ in range(500):
        f = random_coeff_polyc(rng, 6)
        b = random_blaschke(rng, max_distinct=4, max_mult=2, max_modulus=0.8)
        assert division_monotonicity_check(f, b, float(rng.choice(alphas)))

    # residual-vs-integral brackets stable across two seeds; the family keeps
    # zeros well inside and degrees low so the 100-draw extremes reproduce
    for alpha in alphas:
        def bracket(seed):
            r = np.random.default_rng(seed)
            vals = []
            for _ in range(100):
                f = random_coeff_polyc(r, 3)
                b = random_blaschke(r, max_distinct=3, max_mult=1,
                                    max_modulus=0.6)
                vals.append(r_alpha(f, b, alpha) / r_alpha_area(f, b, alpha))
            return min(vals), max(vals)

        lo1, hi1 = bracket(1900)
        lo2, hi2 = bracket(2900)
        assert abs(lo1 - lo2) <= 0.1 * lo1
        assert abs(hi1 - hi2) <= 0.1 * hi1

    # reference ratios at alpha = 1/2 against their closed forms
    r1 = verify_theorem_41(monomial_family(2), 0.5)
    r2 = verify_theorem_41(gapped_monomial_family(2, 5), 0.5)
    want1 = math.sqrt(2.0) / 2.0                       # ~0.7071
    want2 = math.sqrt(5.0) / (math.sqrt(3.0) + 2.0)    # ~0.5992
    assert r1.ratio == pytest.approx(want1, abs=1e-4)
    assert r2.ratio == pytest.approx(want2, abs=1e-4)

    # family-level boundedness standing in for the unknowable constant
    for alpha in alphas:
        rng_f = np.random.default_rng(3900)
        ratios = []
        for _ in range(100):
            system = random_admissible_system(
                rng_f, n=int(rng_f.integers(1, 3)), max_degree=6)
            ratios.append(verify_theorem_41(list(system.fs), alpha).ratio)
        threshold = 10.0 * max(2.0 ** alpha / 2.0,
                               5.0 ** alpha / (3.0 ** alpha + 2.0))
        assert max(ratios) < threshold
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(9, f"norms, monotonicity, brackets, reference ratios, "
              f"boundedness, {elapsed:.1f}s")


def test_criterion_10_cli_determinism(tmp_path):
    problems = [
        {"mode": "example1", "n": 2},
        {"mode": "example2", "n": 2, "m": 5, "eps": 0.1},
        {"mode": "truncation", "alpha": 0.5, "rule": "geometric_boundary",
         "levels": [2, 4]},
    ]
    for i, problem in enumerate(problems):
        path = tmp_path / f"p{i}.json"
        path.write_text(json.dumps(problem))
        outs = [subprocess.run(
            [sys.executable, "-m", "diskabc", str(path), "--seed", "11"],
            capture_output=True, check=True).stdout for _ in range(2)]
        assert outs[0] == outs[1]
    report(10, "byte-identical JSON across repeated seeded invocations")
