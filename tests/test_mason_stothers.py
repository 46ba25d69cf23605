"""Exact abc-type theorems and the growing-radius limit study."""

from fractions import Fraction

import numpy as np
import pytest

from diskabc import (DiskDomain, HypothesisFailure, LinearDependence, PolyQ,
                     build_system, lambda_mu_kappa, limit_R_study, verify,
                     verify_theorem_A, verify_theorem_B,
                     wronskian_degree_bound_check)
from families import (random_coprime_triple, random_independent_tuple,
                      random_polyq)
from diskabc.polycore import squarefree_part, wronskian


def q(*coeffs):
    return PolyQ.from_rationals(coeffs)


def product_radical_degree(ps):
    """Distinct zeros of the whole product: the count taken before the
    radical was computed per factor."""
    prod = ps[0]
    for p in ps[1:]:
        prod = prod * p
    return squarefree_part(prod).degree


class TestTheoremA:
    def test_squares_identity(self):
        # z^2 + (1 - z^2) = 1: distinct zeros of the product are {0, 1, -1}
        r = verify_theorem_A(q(0, 0, 1), q(1, 0, -1), q(1))
        assert r.holds and r.max_degree == 2 and r.n_distinct == 3
        assert r.bound == 3

    def test_pythagorean_triple(self):
        # (z^2-1)^2 + (2z)^2 = (z^2+1)^2, distinct zeros {0, +-1, +-i}
        r = verify_theorem_A(q(1, 0, -2, 0, 1), q(0, 0, 4), q(1, 0, 2, 0, 1))
        assert r.holds and r.max_degree == 4 and r.n_distinct == 5
        # the power-sum corollary gap: strict inequality with margin one
        assert r.n_distinct - r.max_degree == 1

    def test_not_coprime(self):
        with pytest.raises(HypothesisFailure) as err:
            verify_theorem_A(q(0, 1), q(0, 1), q(0, 2))
        assert err.value.reason == "not_coprime"

    def test_sum_mismatch(self):
        with pytest.raises(HypothesisFailure) as err:
            verify_theorem_A(q(0, 1), q(0, 1), q(0, 1))
        assert err.value.reason == "sum_mismatch"

    def test_all_constant(self):
        with pytest.raises(HypothesisFailure) as err:
            verify_theorem_A(q(1), q(2), q(3))
        assert err.value.reason == "all_constant"

    def test_random_family(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            a, b, c = random_coprime_triple(rng, max_degree=4)
            assert verify_theorem_A(a, b, c).holds


class TestTheoremB:
    def test_n1_reduces_to_three_term(self):
        r = verify_theorem_B([q(0, 0, 1), q(1, 0, -1)])
        assert r.holds and r.n == 1
        assert r.max_degree == 2 and r.bound == 1 * r.n_distinct - 1

    def test_n2_derived_instance(self):
        # (1, z, (z-1)^2) with sum z^2 - z + 2: degrees (0,1,2,2), 4 distinct zeros
        r = verify_theorem_B([q(1), q(0, 1), q(1, -2, 1)])
        assert r.degrees == (0, 1, 2, 2)
        assert r.max_degree == 2 and r.n_distinct == 4
        assert r.bound == 2 * 4 - 3 and r.holds

    def test_dependent(self):
        with pytest.raises(LinearDependence):
            verify_theorem_B([q(1), q(0, 1), q(0, 1)])

    def test_shared_zero_raises(self):
        with pytest.raises(HypothesisFailure) as err:
            verify_theorem_B([q(0, 1), q(0, -1, 1)])
        assert err.value.reason == "zero_sets_not_disjoint"

    def test_relaxed_variant(self):
        # p_0 = z and p_1 = z^2 - z share the zero 0, but no point is common
        # to all of p_0, p_1, p_2 and the sum z^2 + z + 1
        ps = [q(0, 1), q(0, -1, 1), q(1, 1)]
        with pytest.raises(HypothesisFailure):
            verify_theorem_B(ps)
        r = verify_theorem_B(ps, relaxed=True)
        assert r.relaxed and r.holds
        # distinct-zero budget is summed per polynomial in the relaxed form
        assert r.n_distinct == 1 + 2 + 1 + 2

    def test_random_family(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            ps = random_independent_tuple(rng, n, max_degree=3)
            assert verify_theorem_B(ps).holds
            assert wronskian_degree_bound_check(ps)


class TestRadicalCount:
    def test_theorem_A_corpus(self):
        rng = np.random.default_rng(44)
        triples = [random_coprime_triple(rng, max_degree=4) for _ in range(30)]
        # repeated zeros: z^3 + (1 - z^3) = 1 and (z^2-1)^2 + (2z)^2 = (z^2+1)^2
        triples += [(q(0, 0, 0, 1), q(1, 0, 0, -1), q(1)),
                    (q(1, 0, -2, 0, 1), q(0, 0, 4), q(1, 0, 2, 0, 1))]
        for a, b, c in triples:
            assert verify_theorem_A(a, b, c).n_distinct == \
                product_radical_degree([a, b, c])
        assert verify_theorem_A(*triples[-2]).n_distinct == 4

    def test_theorem_B_corpus(self):
        rng = np.random.default_rng(46)
        tuples = [random_independent_tuple(rng, int(rng.integers(1, 4)), max_degree=3)
                  for _ in range(15)]
        # repeated zeros: z^3, (z^2-1)^2, 2 and their sum z^4 + z^3 - 2z^2 + 3
        tuples.append([q(0, 0, 0, 1), q(1, 0, -2, 0, 1), q(2)])
        for ps in tuples:
            p_sum = ps[0]
            for p in ps[1:]:
                p_sum = p_sum + p
            assert verify_theorem_B(ps).n_distinct == \
                product_radical_degree(ps + [p_sum])
        assert verify_theorem_B(tuples[-1]).n_distinct == 1 + 2 + 0 + 4


class TestLargerN:
    @pytest.mark.parametrize("n", [4, 5])
    def test_theorem_B(self, n):
        rng = np.random.default_rng(47 + n)
        ps = random_independent_tuple(rng, n, max_degree=n + 1)
        r = verify_theorem_B(ps)
        assert r.n == n and r.holds
        assert wronskian_degree_bound_check(ps)

    def test_degree_bound_full_degree(self):
        # six degree-6 inputs: W has degree at most 6 < 36 - 15
        rng = np.random.default_rng(52)
        ps = [random_polyq(rng, 6) for _ in range(6)]
        assert wronskian_degree_bound_check(ps)
        assert wronskian(ps).degree <= 6


class TestWronskianDegreeBound:
    def test_monomial_triple(self):
        assert wronskian_degree_bound_check([q(1), q(0, 1), q(0, 0, 1)])
        w = wronskian([q(1), q(0, 1), q(0, 0, 1)])
        assert w.degree == 0  # the determinant is the constant 2

    def test_pair(self):
        assert wronskian_degree_bound_check([q(0, 1), q(0, 0, 1)])

    def test_dependent_rejected(self):
        with pytest.raises(LinearDependence):
            wronskian_degree_bound_check([q(0, 1), q(0, 2)])


class TestLimitStudy:
    def test_cubic_plus_linear(self):
        # tuple engineered so the exact Wronskian is z^3 + z
        ps = [q(1), q(0, 0, Fraction(1, 2), 0, Fraction(1, 4))]
        assert wronskian(ps) == q(0, 1, 0, 1)
        study = limit_R_study(ps, [10, 40, 160, 640, 2560])
        assert study.kappa_limit_expected == 3
        kerr = [abs(k - 3) for k in study.kappa_values]
        merr = [abs(m - 1) for m in study.mu_values]
        assert all(a > b for a, b in zip(kerr, kerr[1:]))
        assert all(a > b for a, b in zip(merr, merr[1:]))
        assert kerr[-1] < 0.01 and merr[-1] < 0.01

    def test_constant_wronskian(self):
        _, mu, kap = lambda_mu_kappa(q(5).to_polyc(), DiskDomain(0j, 17.0))
        assert (kap, mu) == (0.0, 1.0)

    def test_monomial_exact_at_all_radii(self):
        for r in (10.0, 100.0):
            _, mu, kap = lambda_mu_kappa(q(0, 1).to_polyc(), DiskDomain(0j, r))
            assert kap == pytest.approx(1.0, abs=1e-12)
            assert mu == pytest.approx(1.0, abs=1e-12)

    def test_radius_near_zero_skipped(self):
        # f_1 = z (z-3)^2 / 3 gives W = (z-1)(z-3); a circle hugging the
        # zero at 3 is flagged and skipped
        ps = [q(1), q(0, 3, -2, Fraction(1, 3))]
        assert wronskian(ps) == q(3, -4, 1)
        study = limit_R_study(ps, [3.000001, 30.0])
        assert study.skipped_radii == (3.000001,)
        assert study.radii == (30.0,)

    def test_radius_skip_is_relative_and_tight(self):
        # W(1 + z, z^2) = z (z + 2): a circle 1e-8 (relative) outside the
        # zero at -2 is skipped, circles of radius 3.5 and 10 are kept
        ps = [q(1, 1), q(0, 0, 1)]
        assert wronskian(ps) == q(0, 2, 1)
        study = limit_R_study(ps, [2.00000002, 3.5, 10.0])
        assert study.skipped_radii == (2.00000002,)
        assert study.radii == (3.5, 10.0)

    def test_radii_validation(self):
        ps = [q(1), q(0, 0, Fraction(1, 2), 0, Fraction(1, 4))]
        with pytest.raises(ValueError):
            limit_R_study(ps, [10.0, 10.0])
        with pytest.raises(ValueError):
            limit_R_study(ps, [0.5, 10.0])  # roots not enclosed


def max_zero_modulus(p):
    """Largest zero modulus of a PolyQ by numpy's companion matrix; 0 for a
    constant."""
    coeffs = p.to_polyc().coeffs
    return max((abs(z) for z in np.roots(coeffs[::-1])), default=0.0)


def assert_limit_brackets(ps, study):
    """The closed-form brackets on every circle of ``study``: with W the
    Wronskian of ``ps``, d = deg W and rho its largest zero modulus,

        d <= kappa(R) <= mu(R) d R / (R - rho),
        1 <= mu(R) <= ((R + rho) / (R - rho))^d,

    to a relative slack of 1e-9 (W = z^d attains the outer bounds)."""
    w = wronskian(ps)
    d, rho = w.degree, max_zero_modulus(w)
    lo, hi = 1.0 - 1e-9, 1.0 + 1e-9
    assert study.radii
    for r, kap, mu in zip(study.radii, study.kappa_values, study.mu_values):
        assert d * lo <= kap <= mu * d * r / (r - rho) * hi
        assert lo <= mu <= ((r + rho) / (r - rho)) ** d * hi


class TestLimitBrackets:
    def test_criterion_08_study(self):
        ps = [q(1), q(0, 0, Fraction(1, 2), 0, Fraction(1, 4))]
        assert_limit_brackets(ps, limit_R_study(ps, [10, 40, 160, 640, 2560]))

    def test_pure_power_is_equality(self):
        # W = 3 z^2 / 4: kappa = d and mu = 1 on every circle
        ps = [q(1), q(0, 0, 0, Fraction(1, 4))]
        study = limit_R_study(ps, [0.5, 3.0, 70.0])
        assert_limit_brackets(ps, study)
        assert study.kappa_values == pytest.approx([2.0] * 3, rel=1e-12)
        assert study.mu_values == pytest.approx([1.0] * 3, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_independent_tuples(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(6):
            ps = random_independent_tuple(rng, n, max_degree=n + 2)
            rho = max(max_zero_modulus(p) for p in ps + [wronskian(ps)])
            radii = [f * (rho + 0.1) for f in (1.25, 2.0, 8.0, 64.0)]
            assert_limit_brackets(ps, limit_R_study(ps, radii))


class TestCrossModuleConsistency:
    def test_counting_certificate_at_large_radius(self):
        # disjoint zero sets and R beyond every root modulus: the certificate's
        # left side is the total degree sum (three simple zeros here)
        ps = [q(-1, 1), q(1, 1)]
        fs = [p.to_polyc() for p in ps]
        system = build_system(fs, DiskDomain(0, 4.0))
        cert = verify(system)
        assert cert.lhs == sum(p.degree for p in ps) + 1  # sum 2z adds one zero
        assert cert.pass_21 and cert.pass_22 and cert.divisibility_ok

    def test_random_tuple_total_degree(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            ps = random_independent_tuple(rng, 1, max_degree=3)
            fs = [p.to_polyc() for p in ps]
            rho = 1.0
            for f in fs + [fs[0] + fs[1]]:
                if f.degree >= 1:
                    from diskabc import roots_with_multiplicity
                    rho = max([rho] + [abs(a) for a, _ in
                                       roots_with_multiplicity(f)])
            system = build_system(fs, DiskDomain(0, 2.0 * rho + 1.0))
            cert = verify(system)
            total = sum(f.degree for f in fs) + (fs[0] + fs[1]).degree
            assert cert.lhs == total
            assert cert.pass_21 and cert.pass_22
