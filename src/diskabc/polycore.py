"""Polynomial algebra over complex floats and Gaussian rationals.

Polynomials are stored densely, ascending power order, trailing zeros
stripped.  Two coefficient domains cover the package's needs:

* :class:`PolyC` -- complex double coefficients, the workhorse for
  everything that ends up in quadrature or root finding;
* :class:`PolyQ` -- Gaussian-rational coefficients (pairs of
  :class:`fractions.Fraction`), for the statements that must be checked
  in exact arithmetic.

Wronskians are computed by Laplace expansion along the first row in the
polynomial ring, never as numeric determinants at sample points, so the
exact domain stays exact and the floating domain yields coefficientwise
results.  Each minor is computed once: ``(n+1)(2^n - 1)`` polynomial
products for ``n+1`` functions instead of about ``e (n+1)!`` for plain
cofactor recursion (186 instead of 1236 for six functions).

``PolyQ`` products and divisions run on Python integers: each operand is
brought to one common denominator as Gaussian-integer numerators, and
each output coefficient is built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NumericalFailure

#: Two root locations closer than this are treated as a single multiple zero.
CLUSTER_TOL = 1e-6

#: Floating root finding refuses higher degrees instead of degrading silently.
MAX_ROOT_DEGREE = 30

_RESIDUAL_REL = 1e-8
_RECONSTRUCT_REL = 1e-6


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (tuple, list)) and len(x) == 2:
        return Fraction(int(x[0]), int(x[1]))
    raise TypeError(f"cannot interpret {x!r} as a rational number")


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        if isinstance(re, GaussianRational):
            return re
        return cls(_as_fraction(re), _as_fraction(im))

    @staticmethod
    def _coerce(o):
        if isinstance(o, GaussianRational):
            return o
        if isinstance(o, (int, Fraction)):
            return GaussianRational(_as_fraction(o))
        return None

    def __add__(self, o):
        o = self._coerce(o)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._coerce(o)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, o):
        o = self._coerce(o)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._coerce(o)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


_QZERO = GaussianRational()
_QONE = GaussianRational(Fraction(1))


@dataclass(frozen=True)
class PolyC:
    """Univariate polynomial with complex floating coefficients."""

    coeffs: tuple = ()

    def __post_init__(self):
        c = tuple(complex(x) for x in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def constant(cls, c) -> "PolyC":
        return cls((complex(c),))

    @classmethod
    def monomial(cls, k: int, c=1.0) -> "PolyC":
        return cls((0j,) * k + (complex(c),))

    @classmethod
    def from_roots(cls, roots, lead=1.0) -> "PolyC":
        p = cls.constant(lead)
        for r in roots:
            p = p * cls((-complex(r), 1.0))
        return p

    @cached_property
    def _array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    @property
    def degree(self):
        """Degree, or ``None`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z):
        zz = np.asarray(z, dtype=complex)
        if self.is_zero:
            out = np.zeros_like(zz)
        else:
            out = npoly.polyval(zz, self._array)
        return complex(out) if zz.ndim == 0 else out

    def __add__(self, o):
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return PolyC(out)

    def __neg__(self):
        return PolyC(tuple(-c for c in self.coeffs))

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if isinstance(o, PolyC):
            if self.is_zero or o.is_zero:
                return PolyC()
            return PolyC(np.convolve(self._array, o._array))
        return PolyC(tuple(c * complex(o) for c in self.coeffs))

    def __rmul__(self, o):
        return self * o

    def derivative(self) -> "PolyC":
        return PolyC(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def deflate(self, z0: complex) -> "PolyC":
        """Synthetic-division quotient by ``(z - z0)``; the remainder is dropped."""
        d = self.degree
        if d is None or d == 0:
            return PolyC()
        q = [0j] * d
        q[d - 1] = self.coeffs[d]
        for k in range(d - 1, 0, -1):
            q[k - 1] = self.coeffs[k] + z0 * q[k]
        return PolyC(q)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def to_data(self) -> list:
        return [[c.real, c.imag] for c in self.coeffs]

    @classmethod
    def from_data(cls, data) -> "PolyC":
        return cls(tuple(complex(re, im) for re, im in data))


@dataclass(frozen=True)
class PolyQ:
    """Univariate polynomial with exact Gaussian-rational coefficients."""

    coeffs: tuple = ()

    def __post_init__(self):
        c = tuple(GaussianRational.of(x) if not isinstance(x, GaussianRational) else x
                  for x in self.coeffs)
        while c and c[-1].is_zero:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_rationals(cls, seq) -> "PolyQ":
        """Build from a sequence of coefficients, each an int, a Fraction, a
        GaussianRational, or an (re, im) pair whose parts are ints, Fractions
        or (num, den) pairs.  A bare 2-tuple is always read as (re, im)."""
        return cls(tuple(GaussianRational.of(x) if not isinstance(x, (tuple, list))
                         else GaussianRational(_as_fraction(x[0]), _as_fraction(x[1]))
                         for x in seq))

    @classmethod
    def monomial(cls, k: int, c=1) -> "PolyQ":
        return cls((_QZERO,) * k + (GaussianRational.of(c),))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, o):
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return PolyQ(out)

    def __neg__(self):
        return PolyQ(tuple(-c for c in self.coeffs))

    def __sub__(self, o):
        return self + (-o)

    @cached_property
    def _gaussint(self):
        """``(re, im, d)``: integer tuples and a positive common denominator
        with ``coeffs[k] == (re[k] + i im[k]) / d``."""
        c = self.coeffs
        d = lcm(*(x.re.denominator for x in c), *(x.im.denominator for x in c))
        return (tuple(x.re.numerator * (d // x.re.denominator) for x in c),
                tuple(x.im.numerator * (d // x.im.denominator) for x in c), d)

    def __mul__(self, o):
        if isinstance(o, PolyQ):
            if self.is_zero or o.is_zero:
                return PolyQ()
            ar, ai, da = self._gaussint
            br, bi, db = o._gaussint
            b = list(zip(br, bi))
            cr = [0] * (len(ar) + len(br) - 1)
            ci = list(cr)
            for i, (xr, xi) in enumerate(zip(ar, ai)):
                if not (xr or xi):
                    continue
                for j, (yr, yi) in enumerate(b, i):
                    cr[j] += xr * yr - xi * yi
                    ci[j] += xr * yi + xi * yr
            return _poly_over(cr, ci, da * db)
        return PolyQ(tuple(c * GaussianRational.of(o) for c in self.coeffs))

    def __rmul__(self, o):
        return self * o

    def derivative(self) -> "PolyQ":
        return PolyQ(tuple(GaussianRational.of(k) * c
                           for k, c in enumerate(self.coeffs) if k >= 1))

    def monic(self) -> "PolyQ":
        if self.is_zero:
            return self
        re, im, _ = self._gaussint
        return _poly_over(re, im, re[-1], im[-1])

    def divmod(self, other: "PolyQ"):
        """Exact euclidean division: returns (quotient, remainder).

        Pseudo-division over the Gaussian integers: with ``A = a / da`` and
        ``B = b / db`` on integer numerators and ``l`` the lead of ``b``,
        the loop keeps ``l^e a == q b + r``, multiplying ``q`` and ``r`` by
        ``l`` at each step that cancels a nonzero top coefficient.  Then
        ``A == (db q / (da l^e)) B + r / (da l^e)``.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        m = len(other.coeffs) - 1
        dq = len(self.coeffs) - 1 - m
        if dq < 0:
            return PolyQ(), self
        ar, ai, da = self._gaussint
        rr, ri = list(ar), list(ai)
        br, bi, db = other._gaussint
        b = list(zip(br, bi))
        lr, li = b[m]
        qr, qi = [0] * (dq + 1), [0] * (dq + 1)
        er, ei = 1, 0
        for k in range(dq, -1, -1):
            tr, ti = rr[k + m], ri[k + m]
            if not (tr or ti):
                continue
            for t in range(k + m):
                rr[t], ri[t] = rr[t] * lr - ri[t] * li, rr[t] * li + ri[t] * lr
            for t in range(k + 1, dq + 1):
                qr[t], qi[t] = qr[t] * lr - qi[t] * li, qr[t] * li + qi[t] * lr
            er, ei = er * lr - ei * li, er * li + ei * lr
            qr[k], qi[k] = tr, ti
            rr[k + m] = ri[k + m] = 0
            for j, (yr, yi) in enumerate(b[:m], k):
                rr[j] -= tr * yr - ti * yi
                ri[j] -= tr * yi + ti * yr
        return (_poly_over([x * db for x in qr], [x * db for x in qi], da * er, da * ei),
                _poly_over(rr[:m], ri[:m], da * er, da * ei))

    def __mod__(self, other):
        return self.divmod(other)[1]

    def to_polyc(self) -> PolyC:
        return PolyC(tuple(c.to_complex() for c in self.coeffs))

    def to_data(self) -> list:
        return [[[c.re.numerator, c.re.denominator],
                 [c.im.numerator, c.im.denominator]] for c in self.coeffs]

    @classmethod
    def from_data(cls, data) -> "PolyQ":
        return cls(tuple(GaussianRational(Fraction(int(re[0]), int(re[1])),
                                          Fraction(int(im[0]), int(im[1])))
                         for re, im in data))


def _poly_over(re, im, dr, di=0) -> PolyQ:
    """PolyQ with coefficients ``(re[k] + i im[k]) / (dr + i di)``, each
    output coefficient built once; a non-real divisor is cleared through
    its conjugate and norm."""
    if di:
        re, im = ([x * dr + y * di for x, y in zip(re, im)],
                  [y * dr - x * di for x, y in zip(re, im)])
        dr = dr * dr + di * di
    return PolyQ(tuple(GaussianRational(Fraction(x, dr), Fraction(y, dr))
                       for x, y in zip(re, im)))


@dataclass(frozen=True)
class ZeroList:
    """Distinct zero locations with multiplicities, canonically ordered."""

    entries: tuple = ()

    def __post_init__(self):
        norm = sorted(((complex(a), int(m)) for a, m in self.entries),
                      key=lambda e: (e[0].real, e[0].imag))
        for _, m in norm:
            if m < 1:
                raise ValueError("zero multiplicities must be positive")
        for i in range(1, len(norm)):
            for j in range(i):
                if abs(norm[i][0] - norm[j][0]) < CLUSTER_TOL:
                    raise ValueError(
                        "zero locations closer than the clustering tolerance; "
                        "use ZeroList.merged to combine them")
        object.__setattr__(self, "entries", tuple(norm))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def total(self) -> int:
        """Number of zeros counted with multiplicity."""
        return sum(m for _, m in self.entries)

    @classmethod
    def merged(cls, pairs) -> "ZeroList":
        """Merge locations, adding multiplicities: one :func:`zero_table` column."""
        return cls(tuple((loc, mult) for loc, (mult,) in zero_table([pairs])))


def zero_table(zero_lists) -> tuple:
    """One row ``(location, multiplicities)`` per point of a sequence of
    ``(location, multiplicity)`` lists: locations within ``CLUSTER_TOL`` across
    all lists are one point (chains merge) at their multiplicity-weighted mean,
    and ``multiplicities[j]`` is list j's total there (0 where it has none)."""
    pairs = [(complex(a), int(m), j)
             for j, zeros in enumerate(zero_lists) for a, m in zeros]
    rows = []
    for idxs in _cluster_indices([a for a, _, _ in pairs]):
        mults = [0] * len(zero_lists)
        for i in idxs:
            mults[pairs[i][2]] += pairs[i][1]
        loc = sum(pairs[i][0] * pairs[i][1] for i in idxs) / sum(mults)
        rows.append((loc, tuple(mults)))
    return tuple(rows)


def _cluster_indices(locs):
    """Union-find clustering within ``CLUSTER_TOL``; deterministic order."""
    n = len(locs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(locs[i] - locs[j]) <= CLUSTER_TOL:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


def wronskian(fs):
    """Wronskian determinant of ``n+1`` polynomials, by Laplace expansion
    along the first row with each minor computed once: ``(n+1)(2^n - 1)``
    polynomial products, 186 for six functions.

    Rows are successive derivatives; works over either coefficient domain
    (all inputs must share one).  The zero polynomial is a valid result and
    signals linear dependence.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("wronskian of an empty function list")
    kind = type(fs[0])
    if not all(isinstance(f, kind) for f in fs):
        raise TypeError("wronskian inputs must share one coefficient domain")
    rows = [fs]
    for _ in range(len(fs) - 1):
        rows.append([p.derivative() for p in rows[-1]])
    return _determinant(rows)


def _determinant(m):
    """Laplace expansion along the first row, each minor computed once.

    A minor is fixed by its tuple of columns, since its rows are the last
    ``len(cols)`` ones.  The products and sums run in the order of plain
    cofactor recursion, so the result is the same to the last bit.
    """
    size = len(m)
    memo = {}

    def minor(cols):
        row = m[size - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        det = memo.get(cols)
        if det is None:
            for jj, j in enumerate(cols):
                term = row[j] * minor(cols[:jj] + cols[jj + 1:])
                if jj % 2:
                    term = -term
                det = term if det is None else det + term
            memo[cols] = det
        return det

    return minor(tuple(range(size)))


def gcd_exact(p: PolyQ, q: PolyQ) -> PolyQ:
    """Monic gcd over the Gaussian rationals (Euclidean algorithm)."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd of two zero polynomials")
    a, b = p, q
    while not b.is_zero:
        # monic remainders keep the coefficient growth in check
        a, b = b, (a % b).monic()
    return a.monic()


def squarefree_part(p: PolyQ) -> PolyQ:
    """Monic ``p / gcd(p, p')``; its degree counts the distinct complex zeros."""
    if p.is_zero:
        raise ValueError("squarefree part of the zero polynomial")
    if p.degree == 0:
        return p.monic()
    g = gcd_exact(p, p.derivative())
    q, r = p.divmod(g)
    if not r.is_zero:
        raise ArithmeticError("inexact division in squarefree computation")
    return q.monic()


def roots_with_multiplicity(p: PolyC) -> ZeroList:
    """All roots of ``p`` with multiplicities.

    Companion-matrix eigenvalues first, with an Aberth-Ehrlich retry when
    validation fails.  Exact zero low-order coefficients are stripped
    structurally, so monomial-type factors get an exact root at 0.  Roots
    within ``CLUSTER_TOL`` form one multiple zero whose centroid is polished by
    Newton iteration on the (k-1)-st derivative; all are merged once, at the end.
    Multiple roots of floating polynomials scatter at radius ~eps^(1/k), so
    that tolerance resolves multiplicity 2 reliably; beyond that,
    prefer structural constructions.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no well-defined root set")
    d = p.degree
    if d > MAX_ROOT_DEGREE:
        raise ValueError(f"degree {d} exceeds the root-finder cap {MAX_ROOT_DEGREE}")
    if d == 0:
        return ZeroList()
    k0 = 0
    while p.coeffs[k0] == 0:
        k0 += 1
    q = PolyC(p.coeffs[k0:])
    entries = [(0j, k0)] if k0 else []
    if q.degree >= 1:
        polished = _cluster_refine(q, np.roots(q._array[::-1]))
        ok, info = _roots_ok(q, polished)
        if not ok:
            polished = _cluster_refine(q, aberth_roots(q))
            ok, info = _roots_ok(q, polished)
            if not ok:
                raise NumericalFailure("root finding did not converge", info)
        entries.extend(polished)
    return ZeroList.merged(entries)


def _cluster_refine(q, raw):
    ent = []
    for idxs in _cluster_indices(list(raw)):
        m = len(idxs)
        x = complex(np.mean([raw[i] for i in idxs]))
        ent.append((_newton_refine(q, x, m), m))
    return ent


def _newton_refine(p, x, mult):
    g = p
    for _ in range(mult - 1):
        g = g.derivative()
    gp = g.derivative()
    for _ in range(60):
        dv = gp(x)
        if dv == 0:
            break
        step = g(x) / dv
        x = x - step
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            break
    return x


def residual_scale(p: PolyC, z: complex) -> float:
    """``sum |c_k| max(1, |z|)^k``, the scale of a residual ``|p(z)|``."""
    mags = np.abs(p._array)
    return float(np.sum(mags * np.maximum(1.0, abs(z)) ** np.arange(len(mags))))


def _roots_ok(p, zeros):
    worst = 0.0
    for a, _ in zeros:
        res = abs(p(a)) / residual_scale(p, a)
        worst = max(worst, res)
        if res > _RESIDUAL_REL:
            return False, {"relative_residual": res, "location": a}
    if p.degree <= 12:
        roots_flat = [a for a, m in zeros for _ in range(m)]
        recon = PolyC.from_roots(roots_flat)
        monic = p * (1.0 / p.coeffs[-1])
        err = max(abs(x - y) for x, y in zip(recon.coeffs, monic.coeffs))
        scale = max(1.0, monic.max_abs_coeff())
        if err > _RECONSTRUCT_REL * scale:
            return False, {"reconstruction_error": err, "worst_residual": worst}
    return True, {"worst_residual": worst}


def aberth_roots(p: PolyC) -> np.ndarray:
    """Aberth-Ehrlich simultaneous iteration; fallback root finder."""
    d = p.degree
    if d is None or d < 1:
        raise ValueError("aberth_roots needs degree >= 1")
    c = p._array
    radius = 1.0 + float(np.max(np.abs(c[:-1] / c[-1])))
    x = radius * np.exp(2j * np.pi * (np.arange(d) + 0.376) / d)
    pp = p.derivative()
    for _ in range(300):
        pv = p(x)
        dv = pp(x)
        dv = np.where(dv == 0, 1e-300, dv)
        newton = pv / dv
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        s = np.sum(1.0 / diff, axis=1) - 1.0  # subtract the diagonal's 1/1
        w = newton / (1.0 - newton * s)
        x = x - w
        if np.max(np.abs(w)) <= 1e-14 * (1.0 + np.max(np.abs(x))):
            break
    return x
