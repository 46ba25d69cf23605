"""Certificate pipeline for the zero-count inequalities on a disk.

Given analytic inputs f_0..f_n (polynomials here) and a disk, this module
builds the sum f_{n+1}, the Blaschke products of all n+2 functions, their
LCM and the radical of their product, computes the norm quotients

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
from dataclasses import dataclass

import numpy as np

from . import blaschke as bl
from .blaschke import BlaschkeProduct, DiskDomain
from .errors import HypothesisFailure, LinearDependence
from .polycore import CLUSTER_TOL, PolyC, ZeroList, roots_with_multiplicity, wronskian
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, boundary_integral,
                         dirichlet_norm_area, inf_boundary, sup_boundary)

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
    Bs: tuple            # Blaschke products of f_0..f_{n+1}
    B_lcm: BlaschkeProduct
    B_rad: BlaschkeProduct
    W: PolyC

    @property
    def n(self) -> int:
        return len(self.fs) - 1


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
        return {
            "n": self.n,
            "N_lcm": self.N_lcm,
            "N_rad": self.N_rad,
            "lambda": self.lambda_,
            "mu": self.mu,
            "kappa": self.kappa,
            "lhs": self.lhs,
            "rhs_21": self.rhs_21,
            "rhs_22": self.rhs_22,
            "slack_21": self.slack_21,
            "slack_22": self.slack_22,
            "pass_21": self.pass_21,
            "pass_22": self.pass_22,
            "hypothesis_ok": self.hypothesis_ok,
            "divisibility_ok": self.divisibility_ok,
        }


def build_system(fs, domain: DiskDomain) -> AbcSystem:
    """Root-find every f_j (and their sum), build the Blaschke data and W.

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

    products = []
    for f in fs + (f_sum,):
        interior = []
        for a, m in roots_with_multiplicity(f):
            if domain.boundary_distance(a) < BOUNDARY_ZERO_TOL:
                raise HypothesisFailure(
                    "boundary_zero",
                    f"zero at {a} lies within {BOUNDARY_ZERO_TOL} of the boundary")
            if domain.contains(a):
                interior.append((a, m))
        products.append(BlaschkeProduct(domain, ZeroList(tuple(interior))))

    w = wronskian(fs)
    if w.is_zero:
        raise LinearDependence()
    return AbcSystem(
        domain=domain,
        fs=fs,
        f_sum=f_sum,
        Bs=tuple(products),
        B_lcm=bl.lcm(products),
        B_rad=bl.radical(bl.product(products)),
        W=w,
    )


def lambda_mu_kappa(w: PolyC, domain: DiskDomain,
                    cfg: QuadratureConfig = DEFAULT_CONFIG):
    """The three norm quotients of W.

    ``sup |W|`` and ``inf |W|`` on the boundary circle come from one sampling
    pass each with Newton polishing; ``inf_boundary`` raises the
    ``boundary_vanishing`` hypothesis failure when inf is not above
    ``1e-12 sup``.  ``||W'||^2_{L^2}`` is the closed-form Dirichlet norm
    ``sum k |b_k|^2`` of the Taylor coefficients of ``W(c + R w)``, and the
    L^1 norm of W' on the boundary is a trapezoid sum.  A constant W
    short-circuits all of this: lambda = kappa = 0 and mu = 1 exactly.
    """
    if w.is_zero:
        raise LinearDependence()
    if w.degree == 0:
        return 0.0, 1.0, 0.0
    sup = sup_boundary(w, domain, cfg)
    inf = inf_boundary(w, domain, cfg)
    wp = w.derivative()
    lam = math.sqrt(dirichlet_norm_area(w, domain, cfg)) / inf
    mu = sup / inf
    kap = boundary_integral(lambda z: np.abs(wp(z)), domain, cfg) / inf
    return lam, mu, kap


def _order_at(p: PolyC, z0: complex) -> int:
    """Vanishing order of p at z0 by repeated synthetic division, with a
    relative residual threshold deciding 'is zero here'."""
    order = 0
    q = p
    while not q.is_zero:
        mags = np.abs(np.asarray(q.coeffs))
        scale = float(np.sum(mags * np.maximum(1.0, abs(z0)) ** np.arange(len(mags))))
        if abs(q(z0)) > _ORDER_RESIDUAL_REL * scale:
            break
        q = q.deflate(z0)
        order += 1
    return order


def check_divisibility(system: AbcSystem) -> bool:
    """True iff at every zero of the LCM product with multiplicity k the
    order of W plus n times the order of the radical reaches k."""
    n = system.n
    rad_locs = system.B_rad.zeros.locations()
    for a, k in system.B_lcm.zeros:
        ord_rad = 1 if len(rad_locs) and np.min(np.abs(rad_locs - a)) <= CLUSTER_TOL else 0
        if _order_at(system.W, a) + n * ord_rad < k:
            return False
    return True


def verify(system: AbcSystem,
           cfg: QuadratureConfig = DEFAULT_CONFIG) -> AbcCertificate:
    """Evaluate both inequalities and assemble the certificate."""
    n = system.n
    n_lcm = system.B_lcm.n_zeros
    n_rad = system.B_rad.n_zeros
    div_ok = check_divisibility(system)
    try:
        lam, mu, kap = lambda_mu_kappa(system.W, system.domain, cfg)
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
