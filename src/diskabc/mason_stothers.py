"""Exact-arithmetic abc-type theorems and the large-radius limit study.

The two global statements are checked with Gaussian-rational arithmetic and
zero tolerance: the three-term inequality max deg < (number of distinct
zeros of the product) for coprime a + b = c, and its n-term generalization
max deg <= n * Ntilde - n(n+1)/2 for linearly independent summands with
pairwise disjoint zero sets.

The limit study evaluates the boundary quantities kappa and mu of an exact
Wronskian on circles of growing radius R; kappa uses the displayed
normalization ``(1/2 pi) \\oint_{|z|=R} |W'| |dz|`` (which is R times the
unit-mass boundary mean), so kappa -> deg W and mu -> 1 as R grows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .abc_verifier import lambda_mu_kappa
from .blaschke import DiskDomain
from .errors import HypothesisFailure, LinearDependence
from .polycore import (PolyQ, gcd_exact, roots_with_multiplicity,
                       squarefree_part, wronskian)

_RADIUS_SKIP_REL = 1e-6


@dataclass(frozen=True)
class MasonReport:
    """Outcome of one exact verification."""

    theorem: str                 # "A" or "B"
    n: int
    degrees: tuple
    max_degree: int
    n_distinct: int
    bound: int
    holds: bool
    coprimality_ok: bool
    disjointness_ok: bool
    independence_ok: bool
    relaxed: bool = False

    to_dict = asdict


@dataclass(frozen=True)
class LimitStudy:
    """kappa and mu of a fixed Wronskian on circles of increasing radius."""

    radii: tuple
    kappa_values: tuple
    mu_values: tuple
    kappa_limit_expected: int
    mu_limit_expected: int = 1
    skipped_radii: tuple = ()

    to_dict = asdict

    def csv_rows(self):
        yield ("R", "kappa", "mu")
        for r, k, m in zip(self.radii, self.kappa_values, self.mu_values):
            yield (r, k, m)


def _is_constant(p: PolyQ) -> bool:
    return p.is_zero or p.degree == 0


def _coprime(p: PolyQ, q: PolyQ) -> bool:
    if p.is_zero and q.is_zero:
        return False
    return gcd_exact(p, q).degree == 0


def verify_theorem_A(a: PolyQ, b: PolyQ, c: PolyQ) -> MasonReport:
    """Exact three-term check: for coprime a + b = c, not all constant,
    max{deg a, deg b, deg c} < number of distinct zeros of abc."""
    if a + b != c:
        raise HypothesisFailure("sum_mismatch", "a + b does not equal c")
    if _is_constant(a) and _is_constant(b) and _is_constant(c):
        raise HypothesisFailure("all_constant", "all three polynomials are constant")
    for p, q, names in ((a, b, "a, b"), (a, c, "a, c"), (b, c, "b, c")):
        if not _coprime(p, q):
            raise HypothesisFailure("not_coprime", f"{names} are not relatively prime")
    degs = (a.degree, b.degree, c.degree)
    max_deg = max(degs)
    # pairwise coprime (checked above): rad(abc) = rad(a) rad(b) rad(c)
    n_distinct = sum(squarefree_part(p).degree for p in (a, b, c))
    return MasonReport(
        theorem="A", n=1, degrees=degs, max_degree=max_deg,
        n_distinct=n_distinct, bound=n_distinct,
        holds=max_deg < n_distinct,
        coprimality_ok=True, disjointness_ok=True, independence_ok=True)


def verify_theorem_B(ps, relaxed: bool = False) -> MasonReport:
    """Exact n-term check for p_0..p_n with p_{n+1} their sum.

    The strong hypothesis asks all n+2 zero sets to be pairwise disjoint
    (pairwise constant gcds).  With ``relaxed=True`` only a common zero of
    all of them is forbidden, and the distinct-zero count is replaced by the
    sum of the per-polynomial counts.
    """
    ps = list(ps)
    n = len(ps) - 1
    if n < 1:
        raise ValueError("need at least two polynomials")
    if any(p.is_zero for p in ps):
        raise ValueError("input polynomials must not be identically zero")
    p_sum = ps[0]
    for p in ps[1:]:
        p_sum = p_sum + p
    if p_sum.is_zero:
        raise HypothesisFailure("zero_sum", "the sum p_0 + ... + p_n is identically zero")
    w = wronskian(ps)
    if w.is_zero:
        raise LinearDependence()
    everything = ps + [p_sum]

    if relaxed:
        g = everything[0]
        for p in everything[1:]:
            g = gcd_exact(g, p)
        if g.degree != 0:
            raise HypothesisFailure(
                "common_zero", "all polynomials share a zero")
    else:
        for i in range(len(everything)):
            for j in range(i + 1, len(everything)):
                if not _coprime(everything[i], everything[j]):
                    raise HypothesisFailure(
                        "zero_sets_not_disjoint",
                        f"polynomials {i} and {j} share a zero")
    # relaxed: counted per polynomial by definition; strong: pairwise coprime
    # (checked above), so the radical of the product is the product of radicals
    n_distinct = sum(squarefree_part(p).degree for p in everything)

    degs = tuple(p.degree for p in everything)
    max_deg = max(degs)
    bound = n * n_distinct - n * (n + 1) // 2
    return MasonReport(
        theorem="B", n=n, degrees=degs, max_degree=max_deg,
        n_distinct=n_distinct, bound=bound,
        holds=max_deg <= bound,
        coprimality_ok=True, disjointness_ok=True, independence_ok=True,
        relaxed=relaxed)


def wronskian_degree_bound_check(ps) -> bool:
    """True iff deg W <= sum deg p_j - n(n+1)/2, in exact arithmetic."""
    ps = list(ps)
    if any(p.is_zero for p in ps):
        raise ValueError("input polynomials must not be identically zero")
    w = wronskian(ps)
    if w.is_zero:
        raise LinearDependence()
    n = len(ps) - 1
    return w.degree <= sum(p.degree for p in ps) - n * (n + 1) // 2


def limit_R_study(ps, radii) -> LimitStudy:
    """Evaluate kappa and mu of the exact Wronskian of ``ps`` on each circle.

    All zeros of the p_j and of W must lie inside the smallest radius; a
    radius passing within 1e-6 (relative) of a zero of W is skipped and
    flagged rather than integrated across.
    """
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    wq = wronskian(list(ps))
    if wq.is_zero:
        raise LinearDependence()
    wc = wq.to_polyc() if isinstance(wq, PolyQ) else wq

    moduli = []
    for p in ps:
        pc = p.to_polyc() if isinstance(p, PolyQ) else p
        if pc.degree >= 1:
            moduli.extend(abs(a) for a, _ in roots_with_multiplicity(pc))
    w_moduli = [abs(a) for a, _ in roots_with_multiplicity(wc)] if wc.degree >= 1 else []
    rho = max(moduli + w_moduli, default=0.0)
    if radii and radii[0] <= rho:
        raise ValueError(
            f"smallest radius {radii[0]} does not exceed the largest zero modulus {rho}")

    kept, kappas, mus, skipped = [], [], [], []
    for r in radii:
        if any(abs(m - r) < _RADIUS_SKIP_REL * r for m in w_moduli):
            skipped.append(r)
            continue
        _, mu, kap = lambda_mu_kappa(wc, DiskDomain(0j, r))
        kept.append(r)
        kappas.append(kap)
        mus.append(mu)
    return LimitStudy(
        radii=tuple(kept), kappa_values=tuple(kappas), mu_values=tuple(mus),
        kappa_limit_expected=wc.degree, mu_limit_expected=1,
        skipped_radii=tuple(skipped))
