"""Seeded random families used by the property and acceptance suites.

Generators keep the numerics in their high-accuracy regime: polynomial
roots stay inside 0.8 of the domain radius, repeated roots are capped at
multiplicity 2 (the fixed clustering tolerance cannot tell a triple root's
floating-point scatter from genuinely distinct zeros), admissible systems
are resampled until the Wronskian is comfortably nonvanishing on the
boundary and its derivative has no zeros hugging the circle, and the
random (polynomial, Blaschke) pairs reject products whose boundary
derivative dips near zero (a kink in |.| would stall the spectral
trapezoid rule).
"""

from __future__ import annotations

import numpy as np

from diskabc.abc_verifier import AbcSystem, build_system
from diskabc.blaschke import BlaschkeProduct, DiskDomain, UNIT_DISK
from diskabc.errors import HypothesisFailure, NumericalFailure
from diskabc.polycore import (CLUSTER_TOL, PolyC, PolyQ, ZeroList, gcd_exact,
                              roots_with_multiplicity, wronskian)
from references import AnalyticProduct

_ROOT_RADIUS_FRAC = 0.8


def _uniform_disk(rng, radius):
    return radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())


def random_polyc(rng, domain: DiskDomain = UNIT_DISK, max_degree: int = 4,
                 min_degree: int = 0, repeat_prob: float = 0.25) -> PolyC:
    """Random polynomial with roots uniform in 0.8 * domain; with probability
    ``repeat_prob`` a root is doubled (never tripled)."""
    d = int(rng.integers(min_degree, max_degree + 1))
    lead = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
    roots = []
    while len(roots) < d:
        r = domain.center + _uniform_disk(rng, _ROOT_RADIUS_FRAC * domain.radius)
        roots.append(r)
        if len(roots) < d and rng.random() < repeat_prob:
            roots.append(r)
    return PolyC.from_roots(roots, lead)


def random_coeff_polyc(rng, max_degree: int = 6, min_degree: int = 1) -> PolyC:
    """Random polynomial with standard-normal complex coefficients."""
    d = int(rng.integers(min_degree, max_degree + 1))
    coeffs = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    if abs(coeffs[-1]) < 0.1:
        coeffs[-1] += 1.0
    return PolyC(tuple(coeffs))


def random_blaschke(rng, domain: DiskDomain = UNIT_DISK, max_distinct: int = 5,
                    max_mult: int = 1, max_modulus: float = 0.85) -> BlaschkeProduct:
    """Random finite Blaschke product with well-separated interior zeros."""
    count = int(rng.integers(1, max_distinct + 1))
    locs = []
    while len(locs) < count:
        w = _uniform_disk(rng, max_modulus)
        if all(abs(w - v) > 3 * CLUSTER_TOL for v in locs):
            locs.append(w)
    entries = tuple((domain.phi_inv(w), int(rng.integers(1, max_mult + 1)))
                    for w in locs)
    return BlaschkeProduct(domain, ZeroList(entries))


def random_admissible_system(rng, domain: DiskDomain = UNIT_DISK,
                             n: int | None = None, max_degree: int = 4,
                             max_tries: int = 100) -> AbcSystem:
    """Resample until the full hypothesis set of the certificate pipeline
    holds and the boundary quadrature stays well-conditioned."""
    for _ in range(max_tries):
        nn = int(rng.integers(1, 4)) if n is None else n
        fs = [random_polyc(rng, domain, max_degree) for _ in range(nn + 1)]
        try:
            system = build_system(fs, domain)
        except HypothesisFailure:
            continue
        w = system.W
        if w.degree >= 1:
            vals = np.abs(w(domain.boundary_points(512)))
            if vals.min() < 1e-6 * vals.max():
                continue
            wp = w.derivative()
            if wp.degree >= 1:
                dist = [domain.boundary_distance(a)
                        for a, _ in roots_with_multiplicity(wp)]
                if dist and min(dist) < 0.02 * domain.radius:
                    continue
        return system
    raise NumericalFailure("no admissible random system found",
                           {"tries": max_tries})


def random_smooth_pair(rng, domain: DiskDomain = UNIT_DISK, f_degree: int = 6,
                       max_distinct: int = 5, max_mult: int = 1,
                       max_modulus: float = 0.85, max_tries: int = 200):
    """Random (f, B) pair whose product derivative stays away from zero on
    the boundary, keeping |(fB)'| smooth enough for spectral quadrature."""
    for _ in range(max_tries):
        f = random_coeff_polyc(rng, f_degree)
        b = random_blaschke(rng, domain, max_distinct, max_mult, max_modulus)
        vals = np.abs(AnalyticProduct(f, b).derivative_eval(domain.boundary_points(512)))
        if vals.min() > 0.05 * vals.mean():
            return f, b
    raise NumericalFailure("no smooth random pair found", {"tries": max_tries})


def random_polyq(rng, degree: int, bound: int = 3, gaussian: bool = True) -> PolyQ:
    """Random exact polynomial with small integer (Gaussian) coefficients."""
    coeffs = []
    for k in range(degree + 1):
        re = int(rng.integers(-bound, bound + 1))
        im = int(rng.integers(-bound, bound + 1)) if gaussian else 0
        if k == degree:
            while re == 0 and im == 0:
                re = int(rng.integers(-bound, bound + 1))
                im = int(rng.integers(-bound, bound + 1)) if gaussian else 0
        coeffs.append((re, im))
    return PolyQ.from_rationals(coeffs)


def random_coprime_triple(rng, max_degree: int = 4, max_tries: int = 500):
    """Random (a, b, c) with a + b = c, pairwise coprime, none constant-only."""
    for _ in range(max_tries):
        a = random_polyq(rng, int(rng.integers(1, max_degree + 1)))
        c = random_polyq(rng, int(rng.integers(1, max_degree + 1)))
        b = c - a
        if b.is_zero:
            continue
        if gcd_exact(a, c).degree != 0:
            continue
        return a, b, c
    raise NumericalFailure("no coprime triple found", {"tries": max_tries})


def random_independent_tuple(rng, n: int, max_degree: int = 3,
                             max_tries: int = 500):
    """Random p_0..p_n admissible for the n-term exact theorem: independent,
    with pairwise disjoint zero sets including the sum."""
    for _ in range(max_tries):
        ps = [random_polyq(rng, int(rng.integers(0, max_degree + 1)))
              for _ in range(n + 1)]
        if any(p.is_zero for p in ps):
            continue
        p_sum = ps[0]
        for p in ps[1:]:
            p_sum = p_sum + p
        if p_sum.is_zero:
            continue
        w = wronskian(ps)
        if w.is_zero:
            continue
        everything = ps + [p_sum]
        ok = True
        for i in range(len(everything)):
            for j in range(i + 1, len(everything)):
                pi, pj = everything[i], everything[j]
                if pi.is_zero and pj.is_zero:
                    ok = False
                    break
                if gcd_exact(pi, pj).degree != 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return ps
    raise NumericalFailure("no admissible exact tuple found", {"tries": max_tries})
