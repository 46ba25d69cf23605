"""Boundary and area integration on disk domains, and the norm computations.

Measures follow the normalization that gives the unit circle and unit disk
total mass 1: boundary integrals are ``(1/2 pi) \\oint g ds`` (so a circle of
radius R has mass R) and area integrals are ``(1/pi) \\iint h dA``.

Every quadrature follows one fixed policy (the module constants below):
boundary integrals use the trapezoidal rule, which is spectrally accurate
for smooth periodic integrands, on ``BOUNDARY_SAMPLES`` points doubled at
most ``REFINEMENT_LIMIT`` times until two successive estimates agree to
``REL_TOL`` relative to the estimate.

The boundary extrema ``sup |p|`` and ``inf |p|`` take polynomials only.
:func:`boundary_extrema` samples ``|p|`` once on a uniform grid of at least
``BOUNDARY_SAMPLES`` and at least ``16 (deg + 1)`` points; every sampled
local maximum and minimum is then polished by a vectorised Newton iteration
with the analytic ``p'`` and ``p''``, and the best sampled or polished
values are returned.  It also holds the relative boundary-vanishing test.

The Dirichlet norm of a polynomial has a closed form in the Taylor
coefficients about the disk centre, which one FFT of boundary samples
yields.  All area integrals go through one engine,
:func:`unit_disk_weighted_mean`: Gauss-Jacobi radial nodes for the weight
``(1-r)^gamma`` (Gauss-Legendre at gamma = 0) times a trapezoid in angle,
both doubled until convergence.  The weight is absorbed into the nodes, so
the full convergence rate holds without any change of variable.
:func:`disk_area_mean` maps a disk onto the unit disk and calls it with
gamma = 0; Blaschke products and their products with polynomials reach it
through the Dirichlet norm.  The Gauss-Jacobi rule comes from the
Golub-Welsch eigenvalue method, so numpy is the only dependency.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import HypothesisFailure, NumericalFailure
from .polycore import PolyC

#: A boundary minimum of |f| at or below this multiple of the boundary
#: maximum counts as a vanishing hypothesis breach.
BOUNDARY_VANISHING_REL = 1e-12

#: Cap on the Newton polishing steps of the boundary extrema.
_NEWTON_ITERATIONS = 30

#: The one resolution and convergence policy of every quadrature: the first
#: boundary grid, the radial nodes of the area rule (whose first probe uses
#: half of both), the number of doublings allowed, and the relative
#: agreement of two successive estimates that ends the doubling.
BOUNDARY_SAMPLES = 1024
RADIAL_NODES = 128
REFINEMENT_LIMIT = 4
REL_TOL = 1e-9

_BLOCK_POINTS = 1 << 19


@lru_cache(maxsize=64)
def _gauss_jacobi(n: int, gamma: float):
    """Nodes and weights of the n-point Gauss rule for the weight
    ``(1-x)^gamma`` on [-1, 1] (gamma = 0 is Gauss-Legendre), by
    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    three-term recurrence, and each weight is the total mass times the
    squared first component of its eigenvector."""
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + gamma
    diag = np.empty(n)
    diag[0] = -gamma / (gamma + 2.0)
    diag[1:] = -gamma ** 2 / (s * (s + 2.0))
    off = 2.0 * k * (k + gamma) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (gamma + 1.0) / (gamma + 1.0) * v[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def boundary_integral(g, domain) -> float:
    """``(1/2 pi) \\oint g ds`` over the domain boundary.

    ``g`` must accept an ndarray of boundary points and return real values.
    """
    n = BOUNDARY_SAMPLES
    prev = None
    for _ in range(REFINEMENT_LIMIT + 1):
        t = 2.0 * np.pi * np.arange(n) / n
        vals = np.asarray(g(domain.boundary_point(t)), dtype=float)
        est = float(domain.radius * vals.mean())
        if prev is not None and abs(est - prev) <= REL_TOL * abs(est):
            return est
        prev = est
        n *= 2
    raise NumericalFailure(
        "boundary integral did not converge within the refinement limit",
        {"last_estimates": (prev, est)})


def _modulus_samples(p, domain):
    """Angles and ``|p|`` on a uniform boundary grid of at least
    ``BOUNDARY_SAMPLES`` and at least ``16 (deg + 1)`` points."""
    if not isinstance(p, PolyC):
        raise TypeError(f"expected a PolyC, got {type(p).__name__}")
    n = BOUNDARY_SAMPLES
    while n < 16 * len(p.coeffs):
        n *= 2
    t = 2.0 * np.pi * np.arange(n) / n
    vals = np.abs(p(domain.boundary_point(t)))
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure("non-finite value on the boundary",
                               {"degree": p.degree})
    return t, vals


def _polished_extremum(p, domain, t, vals, sign: float) -> float:
    """Largest ``sign |p|`` over the samples and their Newton-polished
    local maxima, returned as ``|p|``.

    With ``z = c + R e^{it}`` and ``g(t) = |p(z)|^2``, every sampled local
    maximum of ``sign g`` seeds a vectorised Newton iteration on ``g'``
    using the analytic ``p'`` and ``p''``.  Each step is clipped to one grid
    spacing and the iteration stops once the largest step stops shrinking.
    """
    s = sign * vals
    seeds = t[(s >= np.roll(s, 1)) & (s >= np.roll(s, -1))]
    best = float(s.max())
    h = t[1]                                        # grid spacing
    dp = p.derivative()
    d2p = dp.derivative()
    prev = np.inf
    for _ in range(_NEWTON_ITERATIONS):
        u = domain.radius * np.exp(1j * seeds)      # z - c; dz/dt = i u
        z = domain.center + u
        q, p1 = p(z), dp(z)
        best = max(best, float((sign * np.abs(q)).max()))
        q1 = 1j * u * p1                            # d/dt p(z)
        q2 = -u * (u * d2p(z) + p1)                 # d^2/dt^2 p(z)
        g1 = sign * np.real(np.conj(q) * q1)        # sign g' / 2
        g2 = sign * (np.abs(q1) ** 2 + np.real(np.conj(q) * q2))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(g2 < 0.0, -g1 / g2, np.sign(g1) * h)
        step = np.clip(step, -h, h)
        size = float(np.abs(step).max())
        if not size < prev:
            break
        prev = size
        seeds = seeds + step
    return sign * best


def sup_boundary(p, domain) -> float:
    """Maximum of ``|p|`` over the boundary circle for a polynomial ``p``.

    ``|p|`` is sampled once; every sampled local maximum is polished by
    Newton's method, and the largest sampled or polished value is returned,
    so the result is never below the sampled maximum.  The zero polynomial
    gives 0.
    """
    t, vals = _modulus_samples(p, domain)
    return _polished_extremum(p, domain, t, vals, 1.0)


def boundary_extrema(p, domain):
    """``(sup |p|, inf |p|)`` over the boundary circle for a polynomial ``p``.

    One sampling pass feeds both Newton polishes, so sup equals
    :func:`sup_boundary` and inf is never above the sampled minimum.  A
    constant ``c`` gives ``(|c|, |c|)`` exactly.  An inf that is not above
    ``BOUNDARY_VANISHING_REL`` times sup (the zero polynomial included)
    raises ``HypothesisFailure`` with reason ``"boundary_vanishing"``: ``p``
    effectively vanishes on the boundary.  The test is relative, so it does
    not depend on the scale of ``p``.
    """
    t, vals = _modulus_samples(p, domain)
    if p.degree == 0:
        v = abs(p.coeffs[0])
        return v, v
    sup = _polished_extremum(p, domain, t, vals, 1.0)
    inf = _polished_extremum(p, domain, t, vals, -1.0)
    if not inf > BOUNDARY_VANISHING_REL * sup:
        raise HypothesisFailure(
            "boundary_vanishing",
            f"|f| attains {inf:.3e} on the boundary against a maximum of "
            f"{sup:.3e}; the nonvanishing hypothesis fails")
    return sup, inf


def inf_boundary(p, domain) -> float:
    """Minimum of ``|p|`` over the boundary circle for a polynomial ``p``;
    the second value of :func:`boundary_extrema`, whose vanishing test it
    shares."""
    return boundary_extrema(p, domain)[1]


def _angular_means(h, r, n_angular):
    """Mean of ``h`` over the ``n_angular`` trapezoid points of the circle of
    each radius in ``r``, chunked so the (radial x angular) evaluation grid
    never exceeds a fixed memory budget."""
    phase = np.exp(2j * np.pi * np.arange(n_angular) / n_angular)
    out = np.empty(len(r), dtype=float)
    block = max(1, _BLOCK_POINTS // n_angular)
    for i0 in range(0, len(r), block):
        z = r[i0:i0 + block, None] * phase[None, :]
        out[i0:i0 + block] = np.asarray(h(z), dtype=float).mean(axis=1)
    return out


def disk_area_mean(h, domain) -> float:
    """``(1/pi) \\iint_domain h dA``: the unweighted unit-disk rule applied
    to ``h(c + R w)``, scaled by the area factor ``R^2``."""
    c, radius = domain.center, domain.radius
    return radius ** 2 * unit_disk_weighted_mean(
        lambda w: h(c + radius * w), 0.0)


def unit_disk_weighted_mean(h, gamma: float) -> float:
    """``(1/pi) \\iint_D h(z) (1-|z|)^gamma dA`` on the unit disk, gamma > -1.

    Gauss-Jacobi radial nodes (Gauss-Legendre at gamma = 0) absorb the
    radial weight exactly, so ``h`` only needs to be smooth for full-rate
    convergence; the angular direction is a trapezoid sum.  A half-size
    probe (``BOUNDARY_SAMPLES / 2`` angles, ``RADIAL_NODES / 2`` radii) runs
    first, then both directions double until two successive estimates agree
    to ``REL_TOL``, at most ``REFINEMENT_LIMIT + 1`` times.
    """
    if not gamma > -1.0:
        raise ValueError("weight exponent must exceed -1 for integrability")
    m, k = BOUNDARY_SAMPLES // 2, RADIAL_NODES // 2
    prev = None
    for _ in range(REFINEMENT_LIMIT + 2):
        x, w = _gauss_jacobi(k, float(gamma))
        r = (x + 1.0) / 2.0
        est = float(2.0 ** -gamma * np.sum(w * r * _angular_means(h, r, m)))
        if not np.isfinite(est):
            raise NumericalFailure("non-finite value in area quadrature",
                                   {"estimate": est})
        if prev is not None and abs(est - prev) <= REL_TOL * abs(est):
            return est
        prev = est
        m *= 2
        k *= 2
    raise NumericalFailure(
        "area integral did not converge within the refinement limit",
        {"last_estimates": (prev, est)})


def dirichlet_norm_area(f, domain) -> float:
    """Squared Dirichlet norm ``(1/pi) \\iint |f'|^2 dA`` over the domain.

    The Dirichlet integral is conformally invariant, so for a polynomial it
    equals ``sum_k k |b_k|^2`` with ``b_k`` the Taylor coefficients of
    ``f(c + R w)``.  These come from one FFT of ``deg + 1`` samples of
    ``f`` taken directly on the boundary circle, which is unitary up to
    scale and so keeps them well conditioned.  Anything else exposing
    ``derivative_eval`` (Blaschke products, analytic products) goes through
    :func:`disk_area_mean` with the derivative evaluated analytically.
    """
    if isinstance(f, PolyC):
        n = max(len(f.coeffs), 1)
        b = np.fft.fft(f(domain.boundary_points(n))) / n
        return float(np.sum(np.arange(n) * np.abs(b) ** 2))
    return disk_area_mean(lambda z: np.abs(f.derivative_eval(z)) ** 2, domain)


def dalpha_norm_coeff(f, alpha: float) -> float:
    """``sum_{k>=1} k^alpha |f_hat(k)|^2`` from Taylor coefficients at 0.

    Only meaningful on the unit disk; alpha must lie in (0, 1].
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    total = 0.0
    for k, c in enumerate(f.coeffs):
        if k >= 1:
            total += k ** alpha * abs(c) ** 2
    return total
