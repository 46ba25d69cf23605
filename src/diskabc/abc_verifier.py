"""Certificate pipeline for the zero-count inequalities on a disk.

Given analytic inputs f_0..f_n (polynomials here) and a disk, this module
builds the sum f_{n+1} and one zero table of all n+2 functions' interior
zeros (one row per point, each function's multiplicity there: the LCM
takes the row maxima, the radical one per row), computes the norm quotients

    lambda = ||W'||_{L^2(domain)} * ||1/W||_{L^inf(boundary)}
    mu     = ||W||_{L^inf(boundary)} * ||1/W||_{L^inf(boundary)}
    kappa  = ||W'||_{L^1(boundary)} * ||1/W||_{L^inf(boundary)}

from the Wronskian W, checks the order-divisibility relation that underlies
the estimates, and emits a certificate for the two inequalities

    N(LCM) <= lambda^2 + n mu^2 N(rad)      and
    N(LCM) <= kappa   + n mu   N(rad).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .blaschke import BlaschkeProduct, DiskDomain, from_zeros
from .errors import HypothesisFailure, LinearDependence
from .polycore import (PolyC, residual_scale, roots_with_multiplicity, wronskian,
                       zero_table)
from .quadrature import boundary_extrema, boundary_integral, dirichlet_norm_area

#: A zero this close to the boundary circle invalidates the hypotheses.
BOUNDARY_ZERO_TOL = 1e-6

#: Pass tolerance added to the right-hand side (the left side is an integer).
PASS_TOL = 1e-6

_ORDER_RESIDUAL_REL = 1e-7


@dataclass(frozen=True)
class AbcSystem:
    """All objects of one verification instance."""

    domain: DiskDomain
    fs: tuple            # f_0..f_n
    f_sum: PolyC         # f_{n+1}
    W: PolyC
    zeros: tuple         # zero_table rows of f_0..f_{n+1} inside the domain

    @property
    def n(self) -> int:
        return len(self.fs) - 1

    @cached_property
    def B_lcm(self) -> BlaschkeProduct:
        return from_zeros(self.domain, [(a, max(ms)) for a, ms in self.zeros])

    @cached_property
    def B_rad(self) -> BlaschkeProduct:
        return from_zeros(self.domain, [(a, 1) for a, _ in self.zeros])


@dataclass(frozen=True)
class AbcCertificate:
    """Numbers and verdicts of one verification.

    ``rhs_21``/``pass_21`` refer to the squared-norm inequality, ``rhs_22``
    etc. to the L^1-derivative variant; slack is rhs - lhs.  When the
    nonvanishing hypothesis fails, ``hypothesis_ok`` is False and no pass
    claims are made (the norm fields stay None).
    """

    n: int
    N_lcm: int
    N_rad: int
    lambda_: float | None
    mu: float | None
    kappa: float | None
    lhs: int
    rhs_21: float | None
    rhs_22: float | None
    slack_21: float | None
    slack_22: float | None
    pass_21: bool
    pass_22: bool
    hypothesis_ok: bool
    divisibility_ok: bool

    def to_dict(self) -> dict:
        return {("lambda" if k == "lambda_" else k): v
                for k, v in asdict(self).items()}


def build_system(fs, domain: DiskDomain) -> AbcSystem:
    """Root-find every f_j (and their sum), build the zero table and W.

    Raises a hypothesis failure if any function has a zero within
    ``BOUNDARY_ZERO_TOL`` of the boundary circle, and a linear-dependence
    error if the Wronskian vanishes identically.
    """
    fs = tuple(fs)
    n = len(fs) - 1
    if n < 1:
        raise ValueError("need at least two functions")
    if any(f.is_zero for f in fs):
        raise ValueError("input functions must not be identically zero")
    f_sum = fs[0]
    for f in fs[1:]:
        f_sum = f_sum + f
    if f_sum.is_zero:
        raise HypothesisFailure("zero_sum", "the sum f_0 + ... + f_n is identically zero")

    zero_lists = []
    for f in fs + (f_sum,):
        interior = []
        for a, m in roots_with_multiplicity(f):
            if domain.boundary_distance(a) < BOUNDARY_ZERO_TOL:
                raise HypothesisFailure(
                    "boundary_zero",
                    f"zero at {a} lies within {BOUNDARY_ZERO_TOL} of the boundary")
            if domain.contains(a):
                interior.append((a, m))
        zero_lists.append(interior)

    w = wronskian(fs)
    if w.is_zero:
        raise LinearDependence()
    return AbcSystem(domain, fs, f_sum, w, zero_table(zero_lists))


def lambda_mu_kappa(w: PolyC, domain: DiskDomain):
    """The three norm quotients of W.

    ``sup |W|`` and ``inf |W|`` on the boundary circle come from one shared
    sampling pass with Newton polishing (:func:`boundary_extrema`), which
    raises the ``boundary_vanishing`` hypothesis failure when inf is not
    above ``1e-12 sup``.  ``||W'||^2_{L^2}`` is the closed-form Dirichlet norm
    ``sum k |b_k|^2`` of the Taylor coefficients of ``W(c + R w)``, and the
    L^1 norm of W' on the boundary is a trapezoid sum.  A constant W gives
    lambda = kappa = 0 and mu = 1 exactly.
    """
    if w.is_zero:
        raise LinearDependence()
    sup, inf = boundary_extrema(w, domain)
    wp = w.derivative()
    lam = math.sqrt(dirichlet_norm_area(w, domain)) / inf
    mu = sup / inf
    kap = boundary_integral(lambda z: np.abs(wp(z)), domain) / inf
    return lam, mu, kap


def _order_at(p: PolyC, z0: complex) -> int:
    """Vanishing order of p at z0 by repeated synthetic division, with a
    relative residual threshold deciding 'is zero here'."""
    order = 0
    q = p
    while not q.is_zero:
        if abs(q(z0)) > _ORDER_RESIDUAL_REL * residual_scale(q, z0):
            break
        q = q.deflate(z0)
        order += 1
    return order


def check_divisibility(system: AbcSystem) -> bool:
    """True iff at every row of the zero table the order of W plus n times
    the order of the radical (1 at every row) reaches the LCM multiplicity,
    the row's largest entry."""
    n = system.n
    return all(_order_at(system.W, a) + n >= max(ms) for a, ms in system.zeros)


def verify(system: AbcSystem) -> AbcCertificate:
    """Evaluate both inequalities and assemble the certificate."""
    n = system.n
    n_lcm = sum(max(ms) for _, ms in system.zeros)
    n_rad = len(system.zeros)
    div_ok = check_divisibility(system)
    try:
        lam, mu, kap = lambda_mu_kappa(system.W, system.domain)
    except HypothesisFailure:
        return AbcCertificate(
            n=n, N_lcm=n_lcm, N_rad=n_rad,
            lambda_=None, mu=None, kappa=None,
            lhs=n_lcm, rhs_21=None, rhs_22=None,
            slack_21=None, slack_22=None,
            pass_21=False, pass_22=False,
            hypothesis_ok=False, divisibility_ok=div_ok)
    lam, mu, kap = float(lam), float(mu), float(kap)
    rhs_21 = lam ** 2 + n * mu ** 2 * n_rad
    rhs_22 = kap + n * mu * n_rad
    return AbcCertificate(
        n=n, N_lcm=n_lcm, N_rad=n_rad,
        lambda_=lam, mu=mu, kappa=kap,
        lhs=n_lcm,
        rhs_21=rhs_21, rhs_22=rhs_22,
        slack_21=rhs_21 - n_lcm, slack_22=rhs_22 - n_lcm,
        pass_21=bool(n_lcm <= rhs_21 + PASS_TOL),
        pass_22=bool(n_lcm <= rhs_22 + PASS_TOL),
        hypothesis_ok=True, divisibility_ok=div_ok)


def monomial_family(n: int, eps: float = 0.1):
    """The equality family (1, eps z, eps z^2/2!, ..., eps z^n/n!).

    On the unit disk, eps < e^{-2} keeps the sum zero-free, the Wronskian is
    the constant eps^n, and both certificate inequalities are equalities.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < eps < math.exp(-2.0):
        raise ValueError("eps must lie in (0, e^-2) for the unit disk")
    return [PolyC.constant(1.0)] + [
        PolyC.monomial(j, eps / math.factorial(j)) for j in range(1, n + 1)]


def gapped_monomial_family(n: int, m: int, eps: float = 0.1):
    """The equality family with the last monomial degree raised to m > n.

    The Wronskian becomes a constant times z^{m-n}, so the certificate is an
    equality with genuinely nonzero lambda and kappa.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if m <= n:
        raise ValueError("m must exceed n")
    if not 0.0 < eps < 1.0 / math.e:
        raise ValueError("eps must lie in (0, 1/e) for the unit disk")
    fs = [PolyC.constant(1.0)] + [
        PolyC.monomial(j, eps / math.factorial(j)) for j in range(1, n)]
    fs.append(PolyC.monomial(m, eps / math.factorial(m)))
    return fs
