"""Certificate pipeline: systems, norm quotients, divisibility, verdicts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from diskabc import (CLUSTER_TOL, AbcSystem, DiskDomain, HypothesisFailure,
                     LinearDependence, PolyC, UNIT_DISK, ZeroList, build_system,
                     check_divisibility, from_zeros, lambda_mu_kappa,
                     roots_with_multiplicity, verify, zero_table)
from diskabc import blaschke as bl
from diskabc.abc_verifier import gapped_monomial_family, monomial_family
from families import random_admissible_system
from diskabc.polycore import PolyQ, wronskian
from families import random_polyq


class TestBuildSystem:
    def test_equality_family(self):
        system = build_system(monomial_family(2, 0.1), UNIT_DISK)
        assert system.B_lcm.zeros == ZeroList(((0, 2),))
        assert system.B_rad.zeros == ZeroList(((0, 1),))
        assert system.W.degree == 0
        assert system.W.coeffs[0] == pytest.approx(0.01, rel=1e-14)
        assert all(ms[0] == 0 and ms[-1] == 0 for _, ms in system.zeros)

    def test_gapped_family(self):
        system = build_system(gapped_monomial_family(2, 5, 0.1), UNIT_DISK)
        assert system.B_lcm.zeros == ZeroList(((0, 5),))
        assert system.B_rad.zeros == ZeroList(((0, 1),))
        assert system.W.degree == 3
        assert system.W.coeffs[3] == pytest.approx(0.01 / 6, rel=1e-13)

    @pytest.mark.parametrize("radius", [1.0, 0.5])
    def test_zero_table_rows(self, radius):
        # f_0 = (z-a)^2 (z-b) and f_1 = (z-a) g with the linear
        # g = (z-c)(z-d) - (z-a)(z-b), whose zero is e, so the sum is
        # (z-a)(z-c)(z-d); d lies outside the disk of radius 0.5
        a, b, c, d = 0.4, 0.2 + 0.3j, -0.4, -0.5 - 0.3j
        e = (a * b - c * d) / (a + b - c - d)
        g = PolyC.from_roots([c, d]) - PolyC.from_roots([a, b])
        fs = [PolyC.from_roots([a, a, b]), PolyC.from_roots([a]) * g]
        system = build_system(fs, DiskDomain(0, radius))
        expected = {a: (2, 1, 1), b: (1, 0, 0), e: (0, 1, 0), c: (0, 0, 1),
                    d: (0, 0, 1)}
        expected = {z: ms for z, ms in expected.items() if abs(z) < radius}
        assert len(system.zeros) == len(expected)
        for z, ms in expected.items():
            (row,) = [r for r in system.zeros if abs(r[0] - z) < 1e-9]
            assert row[1] == ms
        cert = verify(system)
        assert (cert.N_lcm, cert.N_rad) == (len(expected) + 1, len(expected))

    def test_boundary_zero_hypothesis(self):
        # the sum 1 + z vanishes at -1 on the unit circle
        with pytest.raises(HypothesisFailure) as err:
            build_system([PolyC((1,)), PolyC((0, 1))], UNIT_DISK)
        assert err.value.reason == "boundary_zero"

    @pytest.mark.parametrize("a, counts", [(1 - 1e-4, (2, 2)), (1 + 1e-4, (1, 1))])
    def test_zero_near_circle_is_admitted(self, a, counts):
        # a zero 1e-4 inside or outside the circle is not a boundary zero:
        # z - a and 1 (W = -1, sum zero at a - 1) certify with equality
        cert = verify(build_system([PolyC((-a, 1)), PolyC((1,))], UNIT_DISK))
        assert (cert.N_lcm, cert.N_rad) == counts
        assert cert.pass_21 and cert.pass_22
        assert cert.hypothesis_ok and cert.divisibility_ok

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
    @pytest.mark.parametrize("b", [5e-3, 1e-3])
    def test_nearby_zero_of_w_adds_no_order(self, b):
        # the gapped family (2, 5) has an LCM zero of order 5 at 0; with
        # W = z^2 (z - b) in place of its c z^3, ord_0 W = 2 and 2 + n = 4
        # falls short: the zero of W at b must not count at 0
        system = build_system(gapped_monomial_family(2, 5), UNIT_DISK)
        assert not check_divisibility(replace(system, W=PolyC.from_roots([0, 0, b])))

    def test_equality_families(self):
        assert check_divisibility(build_system(monomial_family(2), UNIT_DISK))
        assert check_divisibility(
            build_system(gapped_monomial_family(2, 5), UNIT_DISK))

    def test_inflated_multiplicity_fails(self):
        system = build_system(monomial_family(2), UNIT_DISK)
        mutated = replace(system, zeros=((0j, (system.B_lcm.n_zeros + 1,)),))
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

    def test_chain_cluster_counts_radical_order(self):
        # a union-find chain of zeros 0.99e-6 apart, wider than CLUSTER_TOL
        # end to end, is one LCM zero and one radical zero at the same point
        # (the multiplicity-weighted mean); the radical has order 1 there,
        # so ord(W) = 7 plus n = 1 reaches the LCM's 8
        locs = [0.3 + 0.99e-6 * i for i in range(5)]
        bs = [from_zeros(UNIT_DISK, [(a, 8 if i == 4 else 1)])
              for i, a in enumerate(locs)]
        b_lcm = bl.lcm(bs)
        b_rad = bl.radical(bl.product(bs))
        (a_lcm, k), = b_lcm.zeros
        (a_rad, _), = b_rad.zeros
        assert abs(locs[-1] - locs[0]) > CLUSTER_TOL
        assert k == 8 and a_lcm == a_rad
        fs = (PolyC((1,)), PolyC((0, 1)))
        system = AbcSystem(UNIT_DISK, fs, fs[0] + fs[1],
                           PolyC.from_roots([a_lcm] * 7),
                           zero_table([b.zeros for b in bs]))
        assert check_divisibility(system)
        lower = replace(system, W=PolyC.from_roots([a_lcm] * 6))
        assert not check_divisibility(lower)


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
        per_fn = [[m for a, m in roots_with_multiplicity(f) if UNIT_DISK.contains(a)]
                  for f in list(system.fs) + [system.f_sum]]
        assert system.B_lcm.n_zeros == sum(sum(ms) for ms in per_fn)
        assert system.B_rad.n_zeros == sum(len(ms) for ms in per_fn)
