"""Blaschke products: construction, evaluation, combinators, zero counting."""

import numpy as np
import pytest

from diskabc import (BlaschkeProduct, DiskDomain, DomainViolation,
                     NumericalFailure, PolyC, UNIT_DISK, ZeroList,
                     boundary_integral, from_zeros, lcm, product, radical,
                     roots_with_multiplicity, zero_table)
from families import random_blaschke

DISK2 = DiskDomain(1 + 0.5j, 2.0)


def count_zeros_argument_principle(f: PolyC, domain: DiskDomain) -> int:
    """Zero count of ``f`` in the domain by the argument principle: a
    counting route independent of root finding.

    Trapezoidal rule on 4096 points for ``(1/2 pi i) \\oint f'/f dz`` on the
    circle; the result must land within 0.1 of an integer, otherwise a zero
    is probably sitting on the boundary and a numerical failure is raised.
    """
    z = domain.boundary_points(4096)
    fp = f.derivative()
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = fp(z) / f(z) * (z - domain.center)
    integral = complex(np.mean(vals))
    if not (np.isfinite(integral.real) and np.isfinite(integral.imag)):
        raise NumericalFailure(
            "argument-principle integrand is singular on the sample grid "
            "(zero on the boundary)", {"integral": integral})
    nearest = round(integral.real)
    if abs(integral - nearest) > 0.1:
        raise NumericalFailure(
            "argument-principle integral is not close to an integer "
            "(possible zero on the boundary)",
            {"integral": integral})
    return int(nearest)


class TestConstruction:
    def test_empty_is_one(self):
        b = from_zeros(UNIT_DISK, [])
        assert b.n_zeros == 0
        assert b(0.3 + 0.2j) == 1.0
        assert b.derivative_eval(0.3) == 0.0

    def test_monomial(self):
        b = from_zeros(UNIT_DISK, [(0, 2)])
        assert b(0.5) == pytest.approx(0.25)
        assert b.n_zeros == 2

    def test_shifted_scaled(self):
        b = from_zeros(DiskDomain(0, 2.0), [(0, 1)])
        assert b(1.0) == pytest.approx(0.5)  # phi(z) = z/2

    def test_boundary_zero_rejected(self):
        with pytest.raises(DomainViolation):
            from_zeros(UNIT_DISK, [(1.0, 1)])
        with pytest.raises(DomainViolation):
            from_zeros(UNIT_DISK, [(1.5, 1)])

    def test_serialization_roundtrip(self):
        # the domain is what the CLI reads and writes
        assert DiskDomain.from_dict(DISK2.to_dict()) == DISK2


class TestEval:
    def test_boundary_unimodular_monomial(self):
        z = np.exp(1j * np.pi / 3)
        b = from_zeros(UNIT_DISK, [(0, 2)])
        assert b(z) == pytest.approx(np.exp(2j * np.pi / 3))

    def test_zero_location(self):
        b = from_zeros(UNIT_DISK, [(0.5, 1)])
        assert b(0.5) == 0

    def test_unimodularity_everywhere(self):
        rng = np.random.default_rng(5)
        for dom in (UNIT_DISK, DISK2):
            for _ in range(10):
                b = random_blaschke(rng, dom, max_distinct=6, max_mult=3)
                vals = np.abs(b(dom.boundary_points(256)))
                assert np.max(np.abs(vals - 1.0)) <= 1e-10

    def test_interior_contraction(self):
        rng = np.random.default_rng(6)
        b = random_blaschke(rng, UNIT_DISK, max_distinct=4)
        pts = 0.9 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
        assert np.all(np.abs(b(pts)) < 1.0)

    def test_conformal_invariance(self):
        rng = np.random.default_rng(7)
        b = random_blaschke(rng, DISK2, max_distinct=5, max_mult=2)
        on_disk = from_zeros(UNIT_DISK, [(DISK2.phi(a), m) for a, m in b.zeros])
        pts = DISK2.phi_inv(0.8 * np.sqrt(rng.random(40))
                            * np.exp(2j * np.pi * rng.random(40)))
        assert np.max(np.abs(b(pts) - on_disk(DISK2.phi(pts)))) <= 1e-12

    def test_derivative_against_finite_difference(self):
        rng = np.random.default_rng(8)
        b = random_blaschke(rng, UNIT_DISK, max_distinct=4, max_mult=2)
        z = 0.4 + 0.2j
        h = 1e-6
        fd = (b(z + h) - b(z - h)) / (2 * h)
        assert b.derivative_eval(z) == pytest.approx(fd, rel=1e-8)


class TestBoundaryDerivative:
    def test_monomial_square(self):
        b = from_zeros(UNIT_DISK, [(0, 2)])
        for t in (0.0, 0.7, 2.1):
            assert b.boundary_derivative_modulus(np.exp(1j * t)) == pytest.approx(2.0)

    def test_constant(self):
        assert BlaschkeProduct(UNIT_DISK).boundary_derivative_modulus(1.0) == 0.0

    def test_chain_rule_radius_two(self):
        b = from_zeros(DiskDomain(0, 2.0), [(0, 1)])
        assert b.boundary_derivative_modulus(2.0) == pytest.approx(0.5)

    def test_matches_derivative_eval_on_boundary(self):
        rng = np.random.default_rng(9)
        for dom in (UNIT_DISK, DISK2):
            b = random_blaschke(rng, dom, max_distinct=5, max_mult=3)
            zeta = dom.boundary_points(64)
            assert np.allclose(b.boundary_derivative_modulus(zeta),
                               np.abs(b.derivative_eval(zeta)), rtol=1e-10)

    def test_poisson_normalization(self):
        # the boundary mean of |B'| is the zero count
        rng = np.random.default_rng(10)
        for dom in (UNIT_DISK, DISK2):
            for _ in range(5):
                b = random_blaschke(rng, dom, max_distinct=6, max_mult=3)
                val = boundary_integral(b.boundary_derivative_modulus, dom)
                assert val == pytest.approx(b.n_zeros, abs=1e-8)


class TestCombinators:
    def test_lcm_example(self):
        b1 = from_zeros(UNIT_DISK, [(0.5, 2)])
        b2 = from_zeros(UNIT_DISK, [(0.5, 1), (0.2, 1)])
        assert lcm([b1, b2]).zeros == ZeroList(((0.5, 2), (0.2, 1)))

    def test_lcm_idempotent(self):
        rng = np.random.default_rng(11)
        b = random_blaschke(rng, UNIT_DISK, max_distinct=4, max_mult=3)
        assert lcm([b, b]).zeros == b.zeros

    def test_lcm_monomials(self):
        ones = BlaschkeProduct(UNIT_DISK)
        z5 = from_zeros(UNIT_DISK, [(0, 5)])
        z1 = from_zeros(UNIT_DISK, [(0, 1)])
        assert lcm([ones, z5, z1, ones]).zeros == z5.zeros

    def test_lcm_with_radical_recovers(self):
        rng = np.random.default_rng(12)
        b = random_blaschke(rng, UNIT_DISK, max_distinct=5, max_mult=3)
        assert lcm([b, radical(b)]).zeros == b.zeros

    def test_radical(self):
        b = from_zeros(UNIT_DISK, [(0.5, 3), (-0.3, 2)])
        assert radical(b).zeros == ZeroList(((0.5, 1), (-0.3, 1)))
        assert radical(radical(b)) == radical(b)
        assert radical(BlaschkeProduct(UNIT_DISK)).n_zeros == 0
        assert radical(from_zeros(UNIT_DISK, [(0, 6)])).zeros == ZeroList(((0, 1),))

    def test_radical_counts_distinct(self):
        rng = np.random.default_rng(13)
        b = random_blaschke(rng, UNIT_DISK, max_distinct=6, max_mult=3)
        assert radical(b).n_zeros == b.n_distinct

    def test_product(self):
        z1 = from_zeros(UNIT_DISK, [(0, 1)])
        z2 = from_zeros(UNIT_DISK, [(0, 2)])
        assert product([z1, z2]).zeros == ZeroList(((0, 3),))
        assert product([BlaschkeProduct(UNIT_DISK)] * 2).n_zeros == 0
        assert product([from_zeros(UNIT_DISK, [(0.5, 1)]),
                        from_zeros(UNIT_DISK, [(0.2, 1)])]).zeros == \
            ZeroList(((0.5, 1), (0.2, 1)))

    def test_lcm_and_product_are_table_views(self):
        # factors that share a point up to 1e-9 and own separate points
        bs = [from_zeros(UNIT_DISK, [(0.5, 2), (0.1j, 1)]),
              from_zeros(UNIT_DISK, [(0.5 + 1e-9, 3), (-0.4, 1)]),
              from_zeros(UNIT_DISK, [(0.1j, 2)])]
        rows = zero_table([b.zeros for b in bs])
        assert sorted(ms for _, ms in rows) == [(0, 1, 0), (1, 0, 2), (2, 3, 0)]
        assert lcm(bs).zeros == ZeroList(tuple((a, max(ms)) for a, ms in rows))
        assert product(bs).zeros == ZeroList(tuple((a, sum(ms)) for a, ms in rows))

    def test_count_inequalities(self):
        rng = np.random.default_rng(14)
        bs = [random_blaschke(rng, UNIT_DISK, max_distinct=4, max_mult=3)
              for _ in range(3)]
        total = sum(b.n_zeros for b in bs)
        assert lcm(bs).n_zeros <= total
        assert product(bs).n_zeros == total

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            lcm([BlaschkeProduct(UNIT_DISK), BlaschkeProduct(DISK2)])
        with pytest.raises(ValueError):
            product([BlaschkeProduct(UNIT_DISK), BlaschkeProduct(DISK2)])

    def test_counts(self):
        b = from_zeros(UNIT_DISK, [(0.5, 2), (-0.3, 1)])
        assert (b.n_zeros, b.n_distinct) == (3, 2)
        one = BlaschkeProduct(UNIT_DISK)
        assert (one.n_zeros, one.n_distinct) == (0, 0)
        z5 = from_zeros(UNIT_DISK, [(0, 5)])
        assert (z5.n_zeros, z5.n_distinct) == (5, 1)


class TestArgumentPrinciple:
    def test_known_roots(self):
        p = PolyC.from_roots([0.5, 0.5, -0.3])
        assert count_zeros_argument_principle(p, UNIT_DISK) == 3

    def test_no_interior_zero(self):
        assert count_zeros_argument_principle(PolyC((3, 1)), UNIT_DISK) == 0

    def test_larger_disk(self):
        assert count_zeros_argument_principle(
            PolyC.monomial(3), DiskDomain(0, 2.0)) == 3

    def test_boundary_zero_detected(self):
        with pytest.raises(NumericalFailure):
            count_zeros_argument_principle(PolyC((-1, 1)), UNIT_DISK)

    def test_matches_blaschke_count(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            d = int(rng.integers(1, 7))
            roots = 0.8 * np.sqrt(rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
            p = PolyC.from_roots(roots)
            interior = [(a, m) for a, m in roots_with_multiplicity(p)
                        if UNIT_DISK.contains(a)]
            b = from_zeros(UNIT_DISK, interior)
            assert count_zeros_argument_principle(p, UNIT_DISK) == b.n_zeros
