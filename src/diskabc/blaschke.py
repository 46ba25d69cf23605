"""Finite Blaschke products on disk domains.

A disk domain carries the explicit conformal map ``phi(z) = (z - z0)/R``
onto the unit disk, so no numerical Riemann mapping is ever needed.  A
Blaschke product is stored as its domain plus the list of distinct zeros
with multiplicities; evaluation, analytic differentiation, the boundary
derivative modulus (a sum of Poisson-kernel terms), the radical and the LCM /
product combinators (max / sum views of one ``zero_table``) live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainViolation
from .polycore import ZeroList, zero_table

#: Zeros must satisfy |phi(zero)| < 1 - INTERIOR_MARGIN.
INTERIOR_MARGIN = 1e-12


def _ipow(arr, k: int):
    """arr**k for a small nonnegative integer k, by repeated multiplication
    (complex array power is an order of magnitude slower)."""
    result = None
    base = arr
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result if result is not None else np.ones_like(arr)


@dataclass(frozen=True)
class DiskDomain:
    """Disk ``{|z - center| < radius}`` with its affine map onto the unit disk."""

    center: complex = 0j
    radius: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError("disk radius must be positive and finite")
        if not np.isfinite(self.center):
            raise ValueError("disk centre must be finite")

    def phi(self, z):
        return (z - self.center) / self.radius

    def phi_inv(self, w):
        return self.center + self.radius * w

    def boundary_point(self, t):
        """Point(s) ``center + R e^{it}`` for scalar or array ``t``."""
        return self.center + self.radius * np.exp(1j * np.asarray(t, dtype=float))

    def boundary_points(self, n: int) -> np.ndarray:
        return self.boundary_point(2.0 * np.pi * np.arange(n) / n)

    def boundary_distance(self, z) -> float:
        return abs(abs(z - self.center) - self.radius)

    def contains(self, z) -> bool:
        return abs(self.phi(z)) < 1.0

    def to_dict(self) -> dict:
        return {"center": [self.center.real, self.center.imag], "radius": self.radius}

    @classmethod
    def from_dict(cls, data) -> "DiskDomain":
        re, im = data["center"]
        return cls(complex(re, im), float(data["radius"]))


UNIT_DISK = DiskDomain()


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product on a disk domain.

    The factor at a zero ``a`` is ``(phi(z) - phi(a)) / (1 - conj(phi(a)) phi(z))``
    raised to the zero's multiplicity; an empty zero list gives the constant 1.
    """

    domain: DiskDomain = UNIT_DISK
    zeros: ZeroList = ZeroList()

    def __post_init__(self):
        for a, _ in self.zeros:
            if abs(self.domain.phi(a)) >= 1.0 - INTERIOR_MARGIN:
                raise DomainViolation(
                    f"zero at {a} is not strictly inside the domain")

    @cached_property
    def _phi_locs(self) -> np.ndarray:
        return np.asarray([self.domain.phi(a) for a, _ in self.zeros], dtype=complex)

    @cached_property
    def _mults(self) -> np.ndarray:
        return np.asarray([m for _, m in self.zeros], dtype=int)

    @property
    def n_zeros(self) -> int:
        return self.zeros.total

    @property
    def n_distinct(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        w = self.domain.phi(zz)
        out = np.ones_like(zz)
        for va, m in zip(self._phi_locs, self._mults):
            fac = (w - va) / (1.0 - va.conjugate() * w)
            out = out * _ipow(fac, int(m))
        return complex(out) if zz.ndim == 0 else out

    def derivative_eval(self, z):
        """Analytic derivative from the factored form (product rule)."""
        zz = np.asarray(z, dtype=complex)
        w = self.domain.phi(zz)
        count = len(self.zeros)
        fac, dfac, pw = [], [], []
        for va, m in zip(self._phi_locs, self._mults):
            den = 1.0 - va.conjugate() * w
            f = (w - va) / den
            fac.append(f)
            dfac.append((1.0 - abs(va) ** 2) / (self.domain.radius * den ** 2))
            pw.append(_ipow(f, int(m)))
        pref = [np.ones_like(w)]
        for k in range(count - 1):
            pref.append(pref[-1] * pw[k])
        suf = [np.ones_like(w)] * count
        for k in range(count - 2, -1, -1):
            suf[k] = suf[k + 1] * pw[k + 1]
        out = np.zeros_like(w)
        for k, m in enumerate(self._mults):
            out = out + (int(m) * _ipow(fac[k], int(m) - 1)
                         * dfac[k] * pref[k] * suf[k])
        return complex(out) if zz.ndim == 0 else out

    def boundary_derivative_modulus(self, zeta):
        """|B'| on the boundary via the Poisson-kernel closed form."""
        zz = np.asarray(zeta, dtype=complex)
        w = self.domain.phi(zz)[..., None]
        va = self._phi_locs
        terms = self._mults * (1.0 - np.abs(va) ** 2) / np.abs(1.0 - np.conj(va) * w) ** 2
        out = np.sum(terms, axis=-1) / self.domain.radius
        return float(out) if zz.ndim == 0 else out


def from_zeros(domain: DiskDomain, zeros) -> BlaschkeProduct:
    """Blaschke product with the given zeros; all must be strictly interior."""
    if not isinstance(zeros, ZeroList):
        zeros = ZeroList(tuple(zeros))
    return BlaschkeProduct(domain, zeros)


def _check_same_domain(bs):
    if not bs:
        raise ValueError("need at least one Blaschke product")
    dom = bs[0].domain
    for b in bs[1:]:
        if b.domain != dom:
            raise ValueError("Blaschke products live on mismatched domains")
    return dom


def _combine(bs, reduce) -> BlaschkeProduct:
    bs = list(bs)
    dom = _check_same_domain(bs)
    rows = zero_table([b.zeros for b in bs])
    return BlaschkeProduct(dom, ZeroList(tuple((loc, reduce(ms)) for loc, ms in rows)))


def lcm(bs) -> BlaschkeProduct:
    """Least common multiple: union of zero sets, pointwise maximum
    multiplicity (of each factor's summed entries at a merged point)."""
    return _combine(bs, max)


def product(bs) -> BlaschkeProduct:
    """Pointwise product: multiplicities add at merged locations."""
    return _combine(bs, sum)


def radical(b: BlaschkeProduct) -> BlaschkeProduct:
    """Same zero locations, every multiplicity reset to 1."""
    return BlaschkeProduct(b.domain, ZeroList(tuple((a, 1) for a, _ in b.zeros)))
