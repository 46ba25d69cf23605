"""Reference values computed apart from ``diskabc``, and the checks that
compare the program's outputs with them.

Nothing here calls the program.  The numerics use numpy's polynomial
module and FFT, the exact layer is recomputed with sympy over the Gaussian
integers ``ZZ_I`` (inside ``QQ_I``), and the D_alpha norms of Blaschke
products come from the partial-fraction/polylog closed form in mpmath or,
for plain Blaschke products, from the Taylor recurrence of ``P/Q`` in
double precision.  Each check takes one record written
by the worker (``kind``, ``input``, ``output``) and returns a list of
mismatch messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

# Tolerances of the method under test, copied here so that a change to the
# program cannot loosen its own check.
REL_TOL = 1e-9          # QuadratureConfig.rel_tol
PASS_TOL = 1e-6         # abc_verifier.PASS_TOL
TAIL_REL_LIMIT = 1e-8   # dalpha.TAIL_REL_LIMIT

# Agreement demanded of quadrature results against closed forms: the
# program stops refining once two levels agree to REL_TOL, so the accepted
# value may sit a few hundred REL_TOL away from the limit.
QUAD_MATCH = 1e3 * REL_TOL

#: Circle samples for the Bernstein brackets and the dense trapezoid.
CIRCLE_SAMPLES = 1 << 14


# ---------------------------------------------------------------------------
# Wronskian Taylor coefficients, brackets and boundary integrals

def wronskian_taylor(fs, center=0j, radius=1.0, size=128):
    """Taylor coefficients ``b_k`` of ``W(center + radius w)`` in ``w``.

    ``fs`` are ascending complex coefficient sequences.  W is evaluated as a
    numeric determinant of successive derivatives at ``size`` roots of unity
    and interpolated by FFT; coefficients beyond the degree bound
    ``sum deg f_j - n(n+1)/2`` are dropped.
    """
    cs = [np.trim_zeros(np.asarray(f, dtype=complex), "b") for f in fs]
    n1 = len(cs)
    bound = sum(len(c) - 1 for c in cs) - n1 * (n1 - 1) // 2
    if bound < 0:
        return np.zeros(1, dtype=complex)
    if size <= bound:
        raise ValueError("too few interpolation points for the degree bound")
    z = center + radius * np.exp(2j * np.pi * np.arange(size) / size)
    m = np.zeros((size, n1, n1), dtype=complex)
    for j, c in enumerate(cs):
        for i in range(n1):
            if c.size:
                m[:, i, j] = npoly.polyval(z, c)
            c = npoly.polyder(c) if c.size > 1 else np.zeros(0, dtype=complex)
    b = np.fft.fft(np.linalg.det(m)) / size
    return b[:bound + 1]


def circle_values(b, size=CIRCLE_SAMPLES):
    """``g(e^{2 pi i k/size})`` for the polynomial with coefficients ``b``."""
    return np.fft.ifft(np.asarray(b, dtype=complex), n=size) * size


def bracket(b, size=CIRCLE_SAMPLES):
    """Brackets ``(sup_lo, sup_hi, inf_lo, inf_hi)`` of ``|g|`` on the unit
    circle.  The sampled max and min give one side; Bernstein's inequality
    ``|d/dt g(e^{it})| <= d sup|g|`` bounds how far |g| can move between
    samples, which gives the other."""
    d = len(b) - 1
    vals = np.abs(circle_values(b, size))
    smax, smin = float(vals.max()), float(vals.min())
    step = math.pi * d / size
    sup_hi = smax / (1.0 - step)
    return smax, sup_hi, max(smin - step * sup_hi, 0.0), smin


def dirichlet_sum(b, alpha=1.0):
    """``sum_k k^alpha |b_k|^2``: at alpha = 1 the Dirichlet integral
    ``(1/pi) int |g'|^2 dA`` over the unit disk."""
    k = np.arange(len(b), dtype=float)
    return float(np.sum(k[1:] ** alpha * np.abs(b[1:]) ** 2))


def derivative_l1(b, size=CIRCLE_SAMPLES):
    """``(1/2 pi) int |g'(e^{it})| dt`` by a dense trapezoid rule; for
    ``g(w) = W(c + R w)`` this is the boundary integral of |W'| in the
    program's normalization."""
    k = np.arange(1, len(b))
    return float(np.mean(np.abs(circle_values(k * b[1:], size))))


def in_range(x, lo, hi, tol=QUAD_MATCH):
    return lo * (1.0 - tol) <= x <= hi * (1.0 + tol)


def close(x, y, tol, scale=None):
    s = max(abs(y), abs(x)) if scale is None else scale
    return abs(x - y) <= tol * s


# ---------------------------------------------------------------------------
# Blaschke products: partial fractions and Li_{-alpha}

def blaschke_dalpha_norm(zeros, alpha, max_terms=1 << 16):
    """``||B||^2`` in D_alpha for ``B = prod (z - a_j)/(1 - conj(a_j) z)``.

    The Taylor coefficients of ``B = P/Q`` come from the recurrence
    ``Q b = P``, whose homogeneous solutions ``conj(a_j)^k`` decay, so it is
    stable in double precision even for clustered zeros (where the
    partial-fraction form of ``product_dalpha_norm`` needs extra digits).
    Summation stops once the coefficients are below 1e-18 of the largest.
    """
    p, q = np.ones(1, dtype=complex), np.ones(1, dtype=complex)
    for a in zeros:
        p = np.convolve(p, [-a, 1.0])
        q = np.convolve(q, [1.0, -np.conj(a)])
    m = len(q) - 1
    b = np.zeros(max_terms, dtype=complex)
    peak = 0.0
    for k in range(max_terms):
        lo = max(0, k - m)
        acc = (p[k] if k <= m else 0.0) - np.dot(q[k - lo:0:-1], b[lo:k])
        b[k] = acc
        peak = max(peak, abs(acc))
        if k > m and np.abs(b[k - m:k + 1]).max() < 1e-18 * peak:
            kk = np.arange(1, k + 1, dtype=float)
            return float(np.sum(kk ** alpha * np.abs(b[1:k + 1]) ** 2))
    raise ValueError("Taylor series did not decay within max_terms")


def product_dalpha_norm(f, zeros, alpha, dps=40):
    """``||f B||^2`` in D_alpha for a polynomial ``f`` (ascending
    coefficients) and the Blaschke product ``B`` with the given simple
    nonzero zeros ``a_j``, in mpmath at ``dps`` digits.

    With the partial fractions ``B(z) = B(0) + sum_j c_j (1/(1 - conj(a_j) z) - 1)``
    the Taylor coefficients of ``f B`` beyond ``deg f`` are
    ``sum_j e_j conj(a_j)^k`` with ``e_j = c_j f(1/conj(a_j))``.  The tail of
    the norm is therefore ``sum_{i,j} e_i conj(e_j) Li_{-alpha}(conj(a_i) a_j)``
    less its first ``deg f`` terms, and the head is summed directly.  The
    ``e_j`` grow like ``|a_j|^-deg f`` and cancel, hence the extra digits.
    """
    import mpmath
    with mpmath.workdps(dps):
        f = [mpmath.mpc(c) for c in f]
        a = [mpmath.mpc(z) for z in zeros]
        m, dg = len(a), len(f) - 1
        c = []
        for j in range(m):
            p = 1 / mpmath.conj(a[j])
            v = p - a[j]
            for i in range(m):
                if i != j:
                    v *= (p - a[i]) / (1 - mpmath.conj(a[i]) * p)
            c.append(v)
        theta = [mpmath.fprod(-z for z in a)] + [
            mpmath.fsum(c[j] * mpmath.conj(a[j]) ** k for j in range(m))
            for k in range(1, dg + 1)]
        kpow = [mpmath.mpf(k) ** alpha for k in range(dg + 1)]
        head = mpmath.fsum(
            kpow[k] * abs(mpmath.fsum(f[i] * theta[k - i] for i in range(k + 1))) ** 2
            for k in range(1, dg + 1))
        e = [c[j] * mpmath.polyval(f[::-1], 1 / mpmath.conj(a[j])) for j in range(m)]
        tail = mpmath.mpf(0)
        for i in range(m):
            for j in range(i, m):
                x = mpmath.conj(a[i]) * a[j]
                li = mpmath.polylog(-alpha, x) - mpmath.fsum(
                    kpow[k] * x ** k for k in range(1, dg + 1))
                term = e[i] * mpmath.conj(e[j]) * li
                tail += term.real if i == j else 2 * term.real
        return float(head + tail)


#: Stored values of geometric_truncation_norm; rebuild with
#: ``python3 perfbench/oracles.py``.
TRUNCATION_FILE = Path(__file__).with_name("truncation_norms.json")
TRUNCATION_ALPHAS = (0.25, 0.5, 0.75)
TRUNCATION_MAX_LEVEL = 12


@lru_cache(maxsize=1)
def _truncation_table():
    with open(TRUNCATION_FILE) as fh:
        return json.load(fh)


def truncation_norm(level, alpha):
    """The stored geometric_truncation_norm, computed when not stored."""
    value = _truncation_table().get(str(alpha), {}).get(str(level))
    return geometric_truncation_norm(level, alpha) if value is None else value


def rebuild_truncation_table():
    table = {str(alpha): {str(level): geometric_truncation_norm(level, alpha)
                          for level in range(1, TRUNCATION_MAX_LEVEL + 1)}
             for alpha in TRUNCATION_ALPHAS}
    with open(TRUNCATION_FILE, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


@lru_cache(maxsize=None)
def geometric_truncation_norm(level, alpha):
    """D_alpha norm of the Blaschke product with zeros ``1 - 2^-k``,
    k = 1..level, evaluated in mpmath at 30 digits."""
    import mpmath
    with mpmath.workdps(30):
        a = [1 - mpmath.mpf(2) ** -k for k in range(1, level + 1)]
        c = []
        for j, aj in enumerate(a):
            p = 1 / aj
            v = p - aj
            for i, ai in enumerate(a):
                if i != j:
                    v *= (p - ai) / (1 - ai * p)
            c.append(v)
        total = mpmath.mpf(0)
        for i in range(level):
            for j in range(level):
                total += c[i] * c[j] * mpmath.polylog(-alpha, a[i] * a[j])
        return float(total)


def sum_zeros(fs):
    """Zeros of ``f_0 + ... + f_n``, by mpmath's Durand-Kerner iteration."""
    import mpmath
    width = max(len(f) for f in fs)
    total = sum(np.pad(np.asarray(f, dtype=complex), (0, width - len(f))) for f in fs)
    c = list(np.trim_zeros(total, "b"))
    if len(c) <= 1:
        return []
    return [complex(r) for r in mpmath.polyroots(c[::-1], maxsteps=100, extraprec=30)]


def interior_zeros(inp, center=0j, radius=1.0):
    """Zeros inside the disk of f_0..f_n (as generated, with multiplicity)
    and of their sum, one list per function."""
    out = []
    for zs in inp["zeros"] + [[(z.real, z.imag) for z in sum_zeros(_fs(inp))]]:
        out.append([complex(re, im) for re, im in zs
                    if abs(complex(re, im) - center) < radius])
    return out


def distinct_zero_counts(zero_lists):
    """``(N_lcm, N_rad)`` when the zero sets of the n+2 functions are
    pairwise disjoint: the LCM is then the product, and the radical counts
    each location once (a generated double zero is listed twice)."""
    total = sum(len(zs) for zs in zero_lists)
    distinct = sum(len(set(zs)) for zs in zero_lists)
    return total, distinct


def _fs(inp):
    return [[complex(re, im) for re, im in f] for f in inp["fs"]]


# ---------------------------------------------------------------------------
# Exact layer with sympy

def zzi_poly(ints):
    """sympy Poly from ascending Gaussian-integer pairs.  The coefficients
    stay in ZZ_I, the Gaussian integers inside QQ_I: gcd, squarefree part
    and the Wronskian determinant then need no fractions, which makes them
    several times faster than over QQ_I."""
    import sympy
    from sympy import ZZ_I
    coeffs = [ZZ_I(int(re), int(im)) for re, im in ints][::-1]
    return sympy.Poly.from_list(coeffs, sympy.Symbol("x"), domain=ZZ_I)


def sympy_wronskian(ps):
    """Exact Wronskian of sympy polys over ZZ_I, by fraction-free elimination
    in sympy's DomainMatrix over ZZ_I[x]."""
    import sympy
    from sympy.polys.matrices import DomainMatrix
    x = ps[0].gen
    ring = ps[0].domain[x]
    rows = [list(ps)]
    for _ in range(len(ps) - 1):
        rows.append([p.diff(x) for p in rows[-1]])
    mat = DomainMatrix([[ring.from_sympy(p.as_expr()) for p in row] for row in rows],
                       (len(ps), len(ps)), ring)
    return sympy.Poly(ring.to_sympy(mat.det()), x, domain=ps[0].domain)


def _degree(p):
    return -1 if p.is_zero else p.degree()


def _distinct_count(p):
    return p.sqf_part().degree()


def _coprime(p, q):
    return p.gcd(q).degree() == 0


# ---------------------------------------------------------------------------
# Checks, one per record kind

def _check_certificate_closed(out, n, m):
    """Equality families: lambda^2 = kappa = m - n, mu = 1, N_lcm = m,
    N_rad = 1, and both right-hand sides equal the left-hand side."""
    errs = []
    if out["N_lcm"] != m or out["N_rad"] != 1 or out["lhs"] != m:
        errs.append(f"counts {out['N_lcm']}, {out['N_rad']} != {m}, 1")
    if not out["hypothesis_ok"] or not out["divisibility_ok"]:
        errs.append("hypothesis or divisibility flag false")
        return errs
    if not close(out["lambda"] ** 2, m - n, QUAD_MATCH, scale=max(1, m - n)):
        errs.append(f"lambda^2 {out['lambda'] ** 2} != {m - n}")
    if not close(out["kappa"], m - n, QUAD_MATCH, scale=max(1, m - n)):
        errs.append(f"kappa {out['kappa']} != {m - n}")
    if not close(out["mu"], 1.0, QUAD_MATCH):
        errs.append(f"mu {out['mu']} != 1")
    for key in ("rhs_21", "rhs_22"):
        if abs(out[key] - m) > PASS_TOL:
            errs.append(f"{key} {out[key]} != lhs {m}")
    if not (out["pass_21"] and out["pass_22"]):
        errs.append("equality family did not pass")
    return errs


def check_abc(inp, out):
    """Random admissible system on a disk."""
    errs = []
    fs = _fs(inp)
    cre, cim, radius = inp["domain"]
    n = len(fs) - 1
    n_lcm, n_rad = distinct_zero_counts(interior_zeros(inp, complex(cre, cim), radius))
    if (out["N_lcm"], out["N_rad"]) != (n_lcm, n_rad):
        errs.append(f"(N_lcm, N_rad) {(out['N_lcm'], out['N_rad'])} != {(n_lcm, n_rad)}")
    if not (out["hypothesis_ok"] and out["divisibility_ok"]
            and out["pass_21"] and out["pass_22"]):
        errs.append("a verdict the theorems guarantee is false")
        return errs
    b = wronskian_taylor(fs, complex(cre, cim), radius)
    lam, mu, kap = out["lambda"], out["mu"], out["kappa"]
    if len(b) == 1:
        if (lam, mu, kap) != (0.0, 1.0, 0.0):
            errs.append("constant Wronskian must give (0, 1, 0)")
        return errs
    dnorm = math.sqrt(dirichlet_sum(b))
    l1 = derivative_l1(b)
    sup_lo, sup_hi, inf_lo, inf_hi = bracket(b)
    # lambda * inf and kappa * inf: their ratio is free of inf
    if not close(kap / lam, l1 / dnorm, QUAD_MATCH):
        errs.append(f"kappa/lambda {kap / lam} != {l1 / dnorm}")
    inf = dnorm / lam
    if not in_range(inf, inf_lo, inf_hi):
        errs.append(f"inf {inf} outside [{inf_lo}, {inf_hi}]")
    if not in_range(mu * inf, sup_lo, sup_hi):
        errs.append(f"sup {mu * inf} outside [{sup_lo}, {sup_hi}]")
    rhs_21 = lam ** 2 + n * mu ** 2 * out["N_rad"]
    rhs_22 = kap + n * mu * out["N_rad"]
    if not (close(out["rhs_21"], rhs_21, 1e-12) and close(out["rhs_22"], rhs_22, 1e-12)):
        errs.append("right-hand sides inconsistent with lambda, mu, kappa")
    return errs


def check_abc_monomial(inp, out):
    return _check_certificate_closed(out, inp["n"], inp["n"])


def check_abc_gapped(inp, out):
    return _check_certificate_closed(out, inp["n"], inp["m"])


def check_limit_r(inp, out):
    """kappa and mu of the exact Wronskian on growing circles."""
    errs = []
    ps = [zzi_poly(p) for p in inp["ps"]]
    w = sympy_wronskian(ps)
    if out["kappa_limit_expected"] != _degree(w):
        errs.append(f"deg W {out['kappa_limit_expected']} != {_degree(w)}")
    if out["skipped_radii"] or list(out["radii"]) != list(inp["radii"]):
        errs.append("radii skipped or reordered")
        return errs
    coeffs = np.array([complex(c) for c in w.all_coeffs()[::-1]], dtype=complex)
    for r, kap, mu in zip(out["radii"], out["kappa_values"], out["mu_values"]):
        b = coeffs * float(r) ** np.arange(len(coeffs))
        if len(b) == 1:
            if (kap, mu) != (0.0, 1.0):
                errs.append("constant Wronskian must give (0, 1)")
            continue
        sup_lo, sup_hi, inf_lo, inf_hi = bracket(b)
        inf = derivative_l1(b) / kap
        if not in_range(inf, inf_lo, inf_hi):
            errs.append(f"R={r}: inf {inf} outside [{inf_lo}, {inf_hi}]")
        if not in_range(mu * inf, sup_lo, sup_hi):
            errs.append(f"R={r}: sup {mu * inf} outside [{sup_lo}, {sup_hi}]")
    return errs


def check_mason_a(inp, out):
    a, b, c = (zzi_poly(p) for p in (inp["a"], inp["b"], inp["c"]))
    errs = []
    if a + b != c or not all(_coprime(p, q) for p, q in ((a, b), (a, c), (b, c))):
        return ["input is not a coprime triple with a + b = c"]
    degs = [_degree(p) for p in (a, b, c)]
    nd = _distinct_count(a * b * c)
    if list(out["degrees"]) != degs or out["max_degree"] != max(degs):
        errs.append(f"degrees {out['degrees']} != {degs}")
    if out["n_distinct"] != nd or out["bound"] != nd:
        errs.append(f"n_distinct {out['n_distinct']} != {nd}")
    if not out["holds"] or max(degs) >= nd:
        errs.append("Mason-Stothers inequality reported false")
    return errs


def check_mason_b(inp, out):
    ps = [zzi_poly(p) for p in inp["ps"]]
    everything = ps + [sum(ps[1:], ps[0])]
    n = len(ps) - 1
    pairs = [(p, q) for i, p in enumerate(everything) for q in everything[i + 1:]]
    if not all(_coprime(p, q) for p, q in pairs):
        return ["input zero sets are not pairwise disjoint"]
    prod = everything[0]
    for p in everything[1:]:
        prod = prod * p
    nd = _distinct_count(prod)
    degs = [_degree(p) for p in everything]
    bound = n * nd - n * (n + 1) // 2
    errs = []
    if list(out["degrees"]) != degs or out["max_degree"] != max(degs):
        errs.append(f"degrees {out['degrees']} != {degs}")
    if out["n_distinct"] != nd or out["bound"] != bound:
        errs.append(f"(n_distinct, bound) {(out['n_distinct'], out['bound'])} != {(nd, bound)}")
    if not out["holds"] or max(degs) > bound:
        errs.append("Theorem B reported false")
    return errs


def check_wdb(inp, out):
    ps = [zzi_poly(p) for p in inp["ps"]]
    n = len(ps) - 1
    w = sympy_wronskian(ps)
    if w.is_zero:
        return ["input tuple is linearly dependent"]
    expected = _degree(w) <= sum(_degree(p) for p in ps) - n * (n + 1) // 2
    if out is not expected or not expected:
        return [f"degree bound check {out} != {expected}"]
    return []


def _check_ratio(out, n, norm_lcm, norm_rad):
    errs = []
    if not close(out["norm_B_lcm_sq"], norm_lcm, TAIL_REL_LIMIT):
        errs.append(f"||B_lcm||^2 {out['norm_B_lcm_sq']} != {norm_lcm}")
    if not close(out["norm_B_rad_sq"], norm_rad, TAIL_REL_LIMIT):
        errs.append(f"||B_rad||^2 {out['norm_B_rad_sq']} != {norm_rad}")
    denom = out["lambda_alpha"] ** 2 + n * out["mu"] ** 2 * out["norm_B_rad_sq"]
    if not close(out["ratio"], out["norm_B_lcm_sq"] / denom, 1e-12):
        errs.append("ratio inconsistent with its parts")
    return errs


def check_t41_monomial(inp, out):
    n, alpha = inp["n"], inp["alpha"]
    errs = _check_ratio(out, n, n ** alpha, 1.0)
    if out["lambda_alpha"] != 0.0 or out["mu"] != 1.0:
        errs.append("constant Wronskian must give lambda_alpha = 0, mu = 1")
    if not close(out["ratio"], n ** (alpha - 1.0), TAIL_REL_LIMIT):
        errs.append(f"ratio {out['ratio']} != n^(alpha-1)")
    return errs


def check_t41_gapped(inp, out):
    n, m, alpha = inp["n"], inp["m"], inp["alpha"]
    errs = _check_ratio(out, n, m ** alpha, 1.0)
    if not close(out["mu"], 1.0, QUAD_MATCH):
        errs.append(f"mu {out['mu']} != 1")
    expected = m ** alpha / ((m - n) ** alpha + n)
    if not close(out["ratio"], expected, TAIL_REL_LIMIT):
        errs.append(f"ratio {out['ratio']} != {expected}")
    return errs


def check_t41(inp, out):
    """Random system on the unit disk whose zeros are all simple."""
    fs = _fs(inp)
    alpha, n = inp["alpha"], len(fs) - 1
    zeros = [z for zs in interior_zeros(inp) for z in zs]
    norm = blaschke_dalpha_norm(zeros, alpha) if zeros else 0.0
    errs = _check_ratio(out, n, norm, norm)
    b = wronskian_taylor(fs)
    if len(b) == 1:
        if out["lambda_alpha"] != 0.0 or out["mu"] != 1.0:
            errs.append("constant Wronskian must give lambda_alpha = 0, mu = 1")
        return errs
    sup_lo, sup_hi, inf_lo, inf_hi = bracket(b)
    inf = math.sqrt(dirichlet_sum(b, alpha)) / out["lambda_alpha"]
    if not in_range(inf, inf_lo, inf_hi):
        errs.append(f"inf {inf} outside [{inf_lo}, {inf_hi}]")
    if not in_range(out["mu"] * inf, sup_lo, sup_hi):
        errs.append(f"sup {out['mu'] * inf} outside [{sup_lo}, {sup_hi}]")
    return errs


def _pair(inp):
    f = [complex(re, im) for re, im in inp["f"]]
    zeros = [complex(re, im) for re, im in inp["zeros"]]
    return f, zeros


def check_r_alpha(inp, out):
    f, zeros = _pair(inp)
    alpha = inp["alpha"]
    full = product_dalpha_norm(f, zeros, alpha)
    k = np.arange(len(f), dtype=float)
    expected = full - float(np.sum(k[1:] ** alpha * np.abs(np.asarray(f)[1:]) ** 2))
    errs = []
    if out < 0:
        errs.append(f"r_alpha {out} < 0")
    if not close(out, expected, TAIL_REL_LIMIT, scale=full):
        errs.append(f"r_alpha {out} != {expected}")
    return errs


def check_r_alpha_area(inp, out):
    return [] if out >= 0 else [f"r_alpha_area {out} < 0"]


def check_monotone(inp, out):
    return [] if out is True else ["division monotonicity reported false"]


def check_truncation(inp, out):
    alpha = inp["alpha"]
    errs = []
    if [row["K"] for row in out] != list(inp["levels"]):
        return ["truncation levels changed"]
    for row in out:
        level = row["K"]
        crit = sum(2.0 ** (-k * (1.0 - alpha)) for k in range(1, level + 1))
        if not close(row["criterion_sum"], crit, 1e-12):
            errs.append(f"K={level}: criterion sum {row['criterion_sum']} != {crit}")
        if not close(row["blaschke_sum"], 1.0 - 2.0 ** -level, 1e-12):
            errs.append(f"K={level}: Blaschke sum {row['blaschke_sum']}")
        norm = truncation_norm(level, alpha)
        if not close(row["norm_sq"], norm, TAIL_REL_LIMIT):
            errs.append(f"K={level}: norm {row['norm_sq']} != {norm}")
    return errs


CHECKS = {
    "abc": check_abc,
    "abc_monomial": check_abc_monomial,
    "abc_gapped": check_abc_gapped,
    "limit_r": check_limit_r,
    "mason_a": check_mason_a,
    "mason_b": check_mason_b,
    "wdb": check_wdb,
    "t41": check_t41,
    "t41_monomial": check_t41_monomial,
    "t41_gapped": check_t41_gapped,
    "r_alpha": check_r_alpha,
    "r_alpha_area": check_r_alpha_area,
    "monotone": check_monotone,
    "truncation": check_truncation,
}


def check(record):
    """Mismatch messages for one worker record (empty when correct)."""
    return CHECKS[record["kind"]](record["input"], record["output"])


if __name__ == "__main__":
    rebuild_truncation_table()
    sys.exit(0)
