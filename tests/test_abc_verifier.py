"""Certificate pipeline: systems, norm quotients, divisibility, verdicts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from diskabc import (DiskDomain, HypothesisFailure, LinearDependence, PolyC,
                     UNIT_DISK, ZeroList, build_system, check_divisibility,
                     from_zeros, lambda_mu_kappa, verify)
from diskabc.abc_verifier import gapped_monomial_family, monomial_family
from diskabc.families import random_admissible_system
from diskabc.polycore import PolyQ, wronskian
from diskabc.families import random_polyq


class TestBuildSystem:
    def test_equality_family(self):
        system = build_system(monomial_family(2, 0.1), UNIT_DISK)
        assert system.B_lcm.zeros == ZeroList(((0, 2),))
        assert system.B_rad.zeros == ZeroList(((0, 1),))
        assert system.W.degree == 0
        assert system.W.coeffs[0] == pytest.approx(0.01, rel=1e-14)
        assert system.Bs[0].n_zeros == 0 and system.Bs[-1].n_zeros == 0

    def test_gapped_family(self):
        system = build_system(gapped_monomial_family(2, 5, 0.1), UNIT_DISK)
        assert system.B_lcm.zeros == ZeroList(((0, 5),))
        assert system.B_rad.zeros == ZeroList(((0, 1),))
        assert system.W.degree == 3
        assert system.W.coeffs[3] == pytest.approx(0.01 / 6, rel=1e-13)

    def test_boundary_zero_hypothesis(self):
        # the sum 1 + z vanishes at -1 on the unit circle
        with pytest.raises(HypothesisFailure) as err:
            build_system([PolyC((1,)), PolyC((0, 1))], UNIT_DISK)
        assert err.value.reason == "boundary_zero"

    def test_shrunk_domain_admits(self):
        system = build_system([PolyC((1,)), PolyC((0, 1))], DiskDomain(0, 0.9))
        assert system.B_lcm.zeros == ZeroList(((0, 1),))
        assert system.B_rad.zeros == ZeroList(((0, 1),))
        assert system.W == PolyC((1,))

    def test_dependent_inputs(self):
        with pytest.raises(LinearDependence):
            build_system([PolyC((1,)), PolyC((0, 1)), PolyC((0, 2))],
                         DiskDomain(0, 0.5))

    def test_f_sum_is_coefficient_sum(self):
        rng = np.random.default_rng(31)
        system = random_admissible_system(rng, n=2)
        total = system.fs[0]
        for f in system.fs[1:]:
            total = total + f
        assert system.f_sum == total


class TestLambdaMuKappa:
    def test_constant_short_circuit(self):
        assert lambda_mu_kappa(PolyC((0.01,)), UNIT_DISK) == (0.0, 1.0, 0.0)

    def test_pure_power(self):
        c = 0.01 / 6
        lam, mu, kap = lambda_mu_kappa(PolyC.monomial(3, c), UNIT_DISK)
        assert lam == pytest.approx(math.sqrt(3), abs=1e-9)
        assert mu == pytest.approx(1.0, abs=1e-12)
        assert kap == pytest.approx(3.0, abs=1e-9)

    def test_linear(self):
        lam, mu, kap = lambda_mu_kappa(PolyC((3, 1)), UNIT_DISK)
        assert lam == pytest.approx(0.5, abs=1e-9)
        assert mu == pytest.approx(2.0, abs=1e-12)
        assert kap == pytest.approx(0.5, abs=1e-9)

    def test_boundary_vanishing(self):
        with pytest.raises(HypothesisFailure):
            lambda_mu_kappa(PolyC((-1, 1)), UNIT_DISK)


class TestDivisibility:
    def test_equality_families(self):
        assert check_divisibility(build_system(monomial_family(2), UNIT_DISK))
        assert check_divisibility(
            build_system(gapped_monomial_family(2, 5), UNIT_DISK))

    def test_inflated_multiplicity_fails(self):
        system = build_system(monomial_family(2), UNIT_DISK)
        mutated = replace(
            system,
            B_lcm=from_zeros(UNIT_DISK, [(0, system.B_lcm.n_zeros + 1)]))
        assert check_divisibility(system)
        assert not check_divisibility(mutated)

    def test_high_multiplicity_zero(self):
        # one function with a triple zero forces the order count on W = 3z:
        # at 0 the LCM multiplicity 3 needs ord(W) + n * ord(rad) = 1 + 2
        fs = [PolyC((1,)), PolyC((0, 1)), PolyC.monomial(3, 0.5)]
        system = build_system(fs, UNIT_DISK)
        assert (0j, 3) in system.B_lcm.zeros.entries
        assert np.allclose(system.W.coeffs, (0, 3))
        assert check_divisibility(system)


class TestVerify:
    def test_equality_family_certificate(self):
        cert = verify(build_system(monomial_family(2), UNIT_DISK))
        assert (cert.lhs, cert.N_rad) == (2, 1)
        assert cert.lambda_ == 0.0 and cert.kappa == 0.0 and cert.mu == 1.0
        assert cert.rhs_21 == pytest.approx(2.0) and cert.rhs_22 == pytest.approx(2.0)
        assert cert.slack_21 == pytest.approx(0.0, abs=1e-6)
        assert cert.slack_22 == pytest.approx(0.0, abs=1e-6)
        assert cert.pass_21 and cert.pass_22 and cert.hypothesis_ok

    def test_gapped_family_certificate(self):
        cert = verify(build_system(gapped_monomial_family(2, 5), UNIT_DISK))
        assert cert.lhs == 5
        assert cert.rhs_21 == pytest.approx(5.0, abs=1e-6)
        assert cert.rhs_22 == pytest.approx(5.0, abs=1e-6)
        assert cert.pass_21 and cert.pass_22 and cert.divisibility_ok

    def test_random_small_family(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            system = random_admissible_system(rng, n=1, max_degree=4)
            cert = verify(system)
            assert cert.hypothesis_ok
            assert cert.pass_21 and cert.pass_22 and cert.divisibility_ok
            assert cert.mu >= 1.0
            assert cert.lambda_ >= 0.0 and cert.kappa >= 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(33)
        system = random_admissible_system(rng, n=2, max_degree=3)
        base = verify(system)
        for c in (2.5, 1e3, 0.3 - 0.7j, 1e-8, 1e-5, 1e8, (1 + 1j) * 1e-6,
                  1j * 1e7):
            scaled = verify(build_system([c * f for f in system.fs],
                                         system.domain))
            assert scaled.hypothesis_ok
            assert scaled.lhs == base.lhs and scaled.N_rad == base.N_rad
            for field in ("lambda_", "mu", "kappa", "rhs_21", "rhs_22"):
                a, b = getattr(scaled, field), getattr(base, field)
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_scale_invariance_gapped_family(self):
        # W = c^3 (0.01/6) z^3 sinks far below any absolute floor at small c
        fs = gapped_monomial_family(2, 5, 0.1)
        base = verify(build_system(fs, UNIT_DISK))
        for c in (1e-8, 1e-5, (1 + 1j) * 1e-6, 1e8, 1j * 1e7):
            scaled = verify(build_system([c * f for f in fs], UNIT_DISK))
            assert scaled.hypothesis_ok and scaled.pass_21 and scaled.pass_22
            assert scaled.lhs == base.lhs and scaled.N_rad == base.N_rad
            for field in ("lambda_", "mu", "kappa", "rhs_21", "rhs_22"):
                a, b = getattr(scaled, field), getattr(base, field)
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_hypothesis_failure_certificate(self):
        # W = z - 1 vanishes on the boundary while all roots stay interior
        fs = [PolyC((1,)), PolyC((0, -1, 0.5))]
        system = build_system(fs, UNIT_DISK)
        assert np.allclose(system.W.coeffs, (-1, 1))
        cert = verify(system)
        assert not cert.hypothesis_ok
        assert not cert.pass_21 and not cert.pass_22
        assert cert.lambda_ is None and cert.mu is None and cert.kappa is None
        assert cert.rhs_21 is None and cert.slack_22 is None

    def test_column_replacement_identity(self):
        # replacing any input column by the sum leaves the Wronskian fixed
        rng = np.random.default_rng(34)
        for _ in range(10):
            ps = [random_polyq(rng, int(rng.integers(0, 4))) for _ in range(3)]
            p_sum = ps[0] + ps[1] + ps[2]
            w = wronskian(ps)
            for j in range(3):
                qs = list(ps)
                qs[j] = p_sum
                assert wronskian(qs) == w

    def test_disjoint_zero_sets_specialization(self):
        # disjoint zeros: N(LCM) is the total count, N(rad) the distinct count
        fs = [PolyC.from_roots([0.5]), PolyC.from_roots([-0.5, -0.5], lead=0.1)]
        system = build_system(fs, UNIT_DISK)
        per_fn = []
        for f, b in zip(list(system.fs) + [system.f_sum], system.Bs):
            per_fn.append(b)
        assert system.B_lcm.n_zeros == sum(b.n_zeros for b in per_fn)
        assert system.B_rad.n_zeros == sum(b.n_distinct for b in per_fn)
