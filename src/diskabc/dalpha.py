"""Weighted-Dirichlet-space (D_alpha) machinery.

The squared D_alpha norm of an analytic function is
``sum_{k>=1} k^alpha |c_k|^2`` over its Taylor coefficients.  Polynomials
are finite sums; Blaschke products are rational, and their coefficients are
extracted by FFT of equispaced unit-circle samples.  Truncation is
certified through two exact totals: the H^2 mass of a Blaschke product is
1, and its k-weighted mass equals its zero count, so the computed partial
sums expose the missing tail, which a Hoelder interpolation converts into
a bound on the missing k^alpha-weighted mass.  (For a product f * theta the
totals are the finite H^2 sum of f and the multiplicative Dirichlet
identity.)  A doubling-stability check backs the certificate against
aliasing.

This route is used instead of a direct power-series division: for zeros
close to the boundary the intermediate reciprocal-series coefficients grow
enormous before cancelling, which destroys double-precision accuracy,
while unit-circle samples of a Blaschke product are perfectly conditioned.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .abc_verifier import build_system
from .blaschke import UNIT_DISK, BlaschkeProduct
from .errors import NumericalFailure
from .polycore import PolyC, ZeroList
from .quadrature import (boundary_extrema, boundary_integral, dalpha_norm_coeff,
                         unit_disk_weighted_mean)

#: Adaptive cutoff targets this relative tail bound ...
TAIL_REL_TARGET = 1e-10
#: ... and declares numerical failure only above this one.
TAIL_REL_LIMIT = 1e-8

_N_START = 512
_N_CAP = 1 << 22
_SAMPLE_BLOCK = 1 << 18


@dataclass(frozen=True)
class DalphaReport:
    """Norm data and the bounded ratio of one weighted-norm verification."""

    alpha: float
    n: int
    norm_B_lcm_sq: float
    norm_B_rad_sq: float
    lambda_alpha: float
    mu: float
    ratio: float

    to_dict = asdict


@dataclass(frozen=True)
class TruncationSchedule:
    """Zero-sequence rule (a name in ``ZERO_RULES``) plus the truncation
    levels K at which to evaluate."""

    zero_rule: str
    truncation_levels: tuple

    def rule(self):
        try:
            return ZERO_RULES[self.zero_rule]
        except KeyError:
            raise ValueError(f"unknown zero rule {self.zero_rule!r}") from None


@dataclass(frozen=True)
class TruncationRow:
    K: int
    criterion_sum: float
    blaschke_sum: float
    norm_sq: float

    to_dict = asdict


ZERO_RULES = {
    # zeros marching geometrically to the boundary, all simple
    "geometric_boundary": lambda k: (1.0 - 2.0 ** (-k), 1),
    # every zero at the origin: the K-term truncation is z^K
    "origin": lambda k: (0j, 1),
}


def _sample_circle(fn, n):
    out = np.empty(n, dtype=complex)
    for i0 in range(0, n, _SAMPLE_BLOCK):
        i1 = min(i0 + _SAMPLE_BLOCK, n)
        z = np.exp(2j * np.pi * np.arange(i0, i1) / n)
        out[i0:i1] = fn(z)
    return out


def _adaptive_coeff_norm(fn, h2_total, d1_total, alpha):
    """``sum k^alpha |c_k|^2`` for the analytic function sampled by ``fn``.

    ``h2_total`` and ``d1_total`` are the exact values of ``sum |c_k|^2`` and
    ``sum k |c_k|^2``; the gaps left by the computed partial sums bound the
    tail via sum k^a|c|^2 <= (sum k|c|^2)^a (sum |c|^2)^(1-a) on the tail.
    """
    n = _N_START
    prev = None
    tail = math.inf
    s_alpha = math.nan
    while n <= _N_CAP:
        c2 = np.abs(np.fft.fft(_sample_circle(fn, n)) / n) ** 2
        k = np.arange(n, dtype=float)
        s0 = float(np.sum(c2))
        s1 = float(np.sum(k * c2))
        s_alpha = float(np.sum(k[1:] ** alpha * c2[1:]))
        gap0 = max(h2_total - s0, 0.0)
        gap1 = max(d1_total - s1, 0.0)
        tail = gap1 ** alpha * gap0 ** (1.0 - alpha)
        scale = max(s_alpha, 1e-12)
        stable = prev is not None and abs(s_alpha - prev) <= TAIL_REL_TARGET * scale
        if stable and tail <= TAIL_REL_TARGET * scale:
            return s_alpha, tail
        prev = s_alpha
        n *= 2
    if prev is not None and tail <= TAIL_REL_LIMIT * max(s_alpha, 1e-12):
        return s_alpha, tail
    raise NumericalFailure(
        "coefficient tail bound did not reach the target at the sample cap",
        {"tail_bound": tail, "partial_sum": s_alpha})


def blaschke_norm_sq(theta: BlaschkeProduct, alpha: float) -> float:
    """Squared D_alpha norm of a finite Blaschke product on the unit disk."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if theta.domain != UNIT_DISK:
        raise ValueError("coefficient norms require the unit disk")
    if not len(theta.zeros):
        return 0.0
    value, _ = _adaptive_coeff_norm(theta, 1.0, float(theta.n_zeros), alpha)
    return value


def product_norm_sq(f: PolyC, theta: BlaschkeProduct, alpha: float) -> float:
    """Squared D_alpha norm of f * theta via circle samples.

    The exact H^2 total is the finite coefficient sum of f (theta is
    unimodular on the circle); the exact Dirichlet total adds the boundary
    integral of |f|^2 |theta'| to the Dirichlet sum of f.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if theta.domain != UNIT_DISK:
        raise ValueError("coefficient norms require the unit disk")
    if f.is_zero:
        return 0.0
    h2 = float(sum(abs(c) ** 2 for c in f.coeffs))
    d1 = dalpha_norm_coeff(f, 1.0)
    if len(theta.zeros):
        d1 += boundary_integral(
            lambda z: np.abs(f(z)) ** 2 * theta.boundary_derivative_modulus(z),
            UNIT_DISK)
    value, _ = _adaptive_coeff_norm(lambda z: f(z) * theta(z), h2, d1, alpha)
    return value


def r_alpha(f: PolyC, theta: BlaschkeProduct, alpha: float) -> float:
    """``||f theta||^2 - ||f||^2`` in D_alpha; nonnegative for inner theta."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return product_norm_sq(f, theta, alpha) - dalpha_norm_coeff(f, alpha)


def r_alpha_area(f: PolyC, theta: BlaschkeProduct, alpha: float) -> float:
    """The area integral ``\\int |f|^2 (1-|theta|^2)/(1-|z|^2)^{1+alpha} dA``
    comparable to r_alpha.

    The integrand blows up like (1-|z|)^{-alpha} at the boundary; that power
    is absorbed by Gauss-Jacobi radial nodes and the remaining factor
    (1-|theta|^2)/(1-|z|^2) extends smoothly to the closed disk.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")

    def h(z):
        r = np.abs(z)
        ratio = (1.0 - np.abs(theta(z)) ** 2) / (1.0 - r ** 2)
        return np.abs(f(z)) ** 2 * ratio * (1.0 + r) ** (-alpha)

    return unit_disk_weighted_mean(h, -alpha)


def division_monotonicity_check(f: PolyC, theta: BlaschkeProduct,
                                alpha: float) -> bool:
    """True iff ||f theta|| >= ||f|| - 1e-9 in D_alpha (inner factors can
    only increase the norm)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    lhs = math.sqrt(product_norm_sq(f, theta, alpha))
    rhs = math.sqrt(dalpha_norm_coeff(f, alpha))
    return lhs >= rhs - 1e-9


def verify_theorem_41(fs, alpha: float) -> DalphaReport:
    """Build the system on the unit disk and report the weighted-norm ratio
    ``||LCM||^2 / (lambda_alpha^2 + n mu^2 ||rad||^2)``.

    The comparability constant of the underlying estimate is not a
    computable number, so no pass/fail verdict is attached; family-level
    boundedness of the ratio is asserted by the test suite instead.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    system = build_system(fs, UNIT_DISK)
    n = system.n
    norm_lcm = blaschke_norm_sq(system.B_lcm, alpha)
    norm_rad = blaschke_norm_sq(system.B_rad, alpha)
    w = system.W
    sup, inf = boundary_extrema(w, UNIT_DISK)
    lambda_alpha = math.sqrt(dalpha_norm_coeff(w, alpha)) / inf
    mu = sup / inf
    denom = lambda_alpha ** 2 + n * mu ** 2 * norm_rad
    ratio = norm_lcm / denom if denom > 0 else math.inf
    return DalphaReport(alpha=alpha, n=n, norm_B_lcm_sq=norm_lcm,
                        norm_B_rad_sq=norm_rad, lambda_alpha=lambda_alpha,
                        mu=mu, ratio=ratio)


def truncation_study(schedule: TruncationSchedule, alpha: float):
    """Norms of the K-term truncations of an infinite zero sequence.

    Each row holds the membership-criterion partial sum
    ``sum m_k (1-|a_k|)^{1-alpha}``, the plain convergence partial sum
    ``sum m_k (1-|a_k|)``, and the squared D_alpha norm of the truncated
    product.  No limit claim is made about the infinite product.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rule = schedule.rule()
    rows = []
    for level in schedule.truncation_levels:
        pairs = [rule(k) for k in range(1, int(level) + 1)]
        for a, _ in pairs:
            if not abs(a) < 1.0:
                raise ValueError(f"zero rule produced |a| >= 1 at {a}")
        criterion = sum(m * (1.0 - abs(a)) ** (1.0 - alpha) for a, m in pairs)
        blaschke_sum = sum(m * (1.0 - abs(a)) for a, m in pairs)
        theta = BlaschkeProduct(UNIT_DISK, ZeroList.merged(pairs))
        rows.append(TruncationRow(
            K=int(level), criterion_sum=criterion,
            blaschke_sum=blaschke_sum,
            norm_sq=blaschke_norm_sq(theta, alpha)))
    return rows
