"""Boundary and area integration on disk domains, and the norm computations.

Measures follow the normalization that gives the unit circle and unit disk
total mass 1: boundary integrals are ``(1/2 pi) \\oint g ds`` (so a circle of
radius R has mass R) and area integrals are ``(1/pi) \\iint h dA``.

Boundary integrals use the trapezoidal rule, which is spectrally accurate
for smooth periodic integrands, with sample doubling until two successive
estimates agree to the configured relative tolerance.

The boundary extrema ``sup |p|`` and ``inf |p|`` take polynomials only.
``|p|`` is sampled once on a uniform grid of at least ``boundary_samples``
and at least ``16 (deg + 1)`` points; every sampled local extremum is then
polished by a vectorised Newton iteration with the analytic ``p'`` and
``p''``, and the best sampled or polished value is returned.

The Dirichlet norm of a polynomial has a closed form in the Taylor
coefficients about the disk centre, which one FFT of boundary samples
yields.  Other analytic inputs (Blaschke products and their products with
polynomials) go through the area rule: Gauss-Legendre (radial) x trapezoid
(angular) tensor quadrature with the same doubling discipline as the
boundary integrals.  The weighted unit-disk integrals absorb their
``(1-r)^gamma`` boundary weight into Gauss-Jacobi radial nodes, which keeps
the full convergence rate without any change of variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .errors import HypothesisFailure, NumericalFailure
from .polycore import PolyC

#: A boundary minimum of |f| at or below this multiple of the boundary
#: maximum counts as a vanishing hypothesis breach.
BOUNDARY_VANISHING_REL = 1e-12

#: Cap on the Newton polishing steps of the boundary extrema.
_NEWTON_ITERATIONS = 30

_BLOCK_POINTS = 1 << 19


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution and convergence policy for all quadrature routines."""

    boundary_samples: int = 1024
    radial_nodes: int = 128
    refinement_limit: int = 4
    rel_tol: float = 1e-9

    def __post_init__(self):
        n = self.boundary_samples
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError("boundary_samples must be a power of two >= 64")
        if self.radial_nodes < 8:
            raise ValueError("radial_nodes must be at least 8")
        if self.refinement_limit < 0:
            raise ValueError("refinement_limit must be nonnegative")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


DEFAULT_CONFIG = QuadratureConfig()


@lru_cache(maxsize=64)
def _leggauss_cached(n: int):
    return leggauss(n)


@lru_cache(maxsize=64)
def _jacobi_cached(n: int, gamma: float):
    x, w = roots_jacobi(n, gamma, 0.0)
    return x, w


def _derivative_fn(f):
    if hasattr(f, "derivative_eval"):
        return f.derivative_eval
    if hasattr(f, "derivative"):
        return f.derivative()
    raise TypeError(f"no derivative evaluation available for {type(f).__name__}")


def boundary_integral(g, domain, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """``(1/2 pi) \\oint g ds`` over the domain boundary.

    ``g`` must accept an ndarray of boundary points and return real values.
    """
    n = cfg.boundary_samples
    prev = None
    for _ in range(cfg.refinement_limit + 1):
        t = 2.0 * np.pi * np.arange(n) / n
        vals = np.asarray(g(domain.boundary_point(t)), dtype=float)
        est = float(domain.radius * vals.mean())
        if prev is not None and abs(est - prev) <= cfg.rel_tol * max(1.0, abs(est)):
            return est
        prev = est
        n *= 2
    raise NumericalFailure(
        "boundary integral did not converge within the refinement limit",
        {"last_estimates": (prev, est)})


def _modulus_samples(p, domain, cfg):
    """Angles and ``|p|`` on a uniform boundary grid of at least
    ``boundary_samples`` and at least ``16 (deg + 1)`` points."""
    if not isinstance(p, PolyC):
        raise TypeError(f"expected a PolyC, got {type(p).__name__}")
    n = cfg.boundary_samples
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


def sup_boundary(p, domain, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Maximum of ``|p|`` over the boundary circle for a polynomial ``p``.

    ``|p|`` is sampled once; every sampled local maximum is polished by
    Newton's method, and the largest sampled or polished value is returned,
    so the result is never below the sampled maximum.  The zero polynomial
    gives 0.
    """
    t, vals = _modulus_samples(p, domain, cfg)
    return _polished_extremum(p, domain, t, vals, 1.0)


def inf_boundary(p, domain, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Minimum of ``|p|`` over the boundary circle for a polynomial ``p``.

    Sampled and polished as in :func:`sup_boundary`, mirrored, so the result
    is never above the sampled minimum.  A minimum that is not above
    ``BOUNDARY_VANISHING_REL`` times the sampled maximum of the same samples
    (the zero polynomial included) raises ``HypothesisFailure`` with reason
    ``"boundary_vanishing"``: ``p`` effectively vanishes on the boundary.
    The test is relative, so it does not depend on the scale of ``p``.
    """
    t, vals = _modulus_samples(p, domain, cfg)
    v = _polished_extremum(p, domain, t, vals, -1.0)
    if not v > BOUNDARY_VANISHING_REL * float(vals.max()):
        raise HypothesisFailure(
            "boundary_vanishing",
            f"|f| attains {v:.3e} on the boundary against a maximum of "
            f"{float(vals.max()):.3e}; the nonvanishing hypothesis fails")
    return v


def _angular_means(h, make_points, n_radial, n_angular):
    """Mean over the angular grid of ``h`` at each radial node, chunked so the
    (radial x angular) evaluation grid never exceeds a fixed memory budget."""
    phase = np.exp(2j * np.pi * np.arange(n_angular) / n_angular)
    out = np.empty(n_radial, dtype=float)
    block = max(1, _BLOCK_POINTS // n_angular)
    for i0 in range(0, n_radial, block):
        i1 = min(i0 + block, n_radial)
        z = make_points(i0, i1, phase)
        out[i0:i1] = np.asarray(h(z), dtype=float).mean(axis=1)
    return out


def _tensor_levels(cfg):
    """Resolutions for the area engines: a half-size probe first, then the
    configured resolution, then ``refinement_limit`` doublings; the accepted
    estimate is therefore at least config-resolution in the common case."""
    m, k = max(32, cfg.boundary_samples // 2), max(8, cfg.radial_nodes // 2)
    for _ in range(cfg.refinement_limit + 2):
        yield m, k
        m *= 2
        k *= 2


def disk_area_mean(h, domain, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """``(1/pi) \\iint_domain h dA`` by Gauss-Legendre x trapezoid tensor
    quadrature, doubling both directions until convergence."""
    prev = est = None
    for m, k in _tensor_levels(cfg):
        x, w = _leggauss_cached(k)
        r = domain.radius * (x + 1.0) / 2.0
        wr = domain.radius * w / 2.0

        def pts(i0, i1, phase):
            return domain.center + r[i0:i1, None] * phase[None, :]

        means = _angular_means(h, pts, k, m)
        est = float(2.0 * np.sum(wr * r * means))
        if prev is not None and abs(est - prev) <= cfg.rel_tol * max(1.0, abs(est)):
            return est
        if not np.isfinite(est):
            raise NumericalFailure("non-finite value in area quadrature",
                                   {"estimate": est})
        prev = est
    raise NumericalFailure(
        "area integral did not converge within the refinement limit",
        {"last_estimates": (prev, est)})


def unit_disk_weighted_mean(h, gamma: float,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """``(1/pi) \\iint_D h(z) (1-|z|)^gamma dA`` on the unit disk, gamma > -1.

    The radial weight is handled exactly by Gauss-Jacobi nodes, so ``h`` only
    needs to be smooth for full-rate convergence.
    """
    if not gamma > -1.0:
        raise ValueError("weight exponent must exceed -1 for integrability")
    prev = est = None
    for m, k in _tensor_levels(cfg):
        x, w = _jacobi_cached(k, float(gamma))
        r = (x + 1.0) / 2.0
        scale = 2.0 ** (-(gamma + 1.0))

        def pts(i0, i1, phase):
            return r[i0:i1, None] * phase[None, :]

        means = _angular_means(h, pts, k, m)
        est = float(2.0 * scale * np.sum(w * r * means))
        if prev is not None and abs(est - prev) <= cfg.rel_tol * max(1.0, abs(est)):
            return est
        if not np.isfinite(est):
            raise NumericalFailure("non-finite value in weighted quadrature",
                                   {"estimate": est})
        prev = est
    raise NumericalFailure(
        "weighted area integral did not converge within the refinement limit",
        {"last_estimates": (prev, est)})


def dirichlet_norm_area(f, domain, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
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
    fp = _derivative_fn(f)
    return disk_area_mean(lambda z: np.abs(fp(z)) ** 2, domain, cfg)


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


def dalpha_norm_area(f, alpha: float,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """``(1/pi) \\iint_D |f'|^2 (1-|z|)^{1-alpha} dA``; at alpha = 1 this is
    exactly the Dirichlet integral."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    fp = _derivative_fn(f)
    return unit_disk_weighted_mean(lambda z: np.abs(fp(z)) ** 2, 1.0 - alpha, cfg)
