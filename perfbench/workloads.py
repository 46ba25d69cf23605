"""Seeded inputs and operations of the three workloads.

A workload is a sequence of rounds.  Every round runs the same list of
operation kinds at the same sizes; the seed and the round number only draw
the coefficients and zero locations.  Inputs are plain JSON data, built
with numpy alone, so the program receives only the generated inputs and the
oracles can recompute everything from the same record.

Admissibility screens keep every input inside the hypotheses of the
statement it exercises (zeros off the circle, disjoint zero sets, linear
independence, a Wronskian that does not vanish on the boundary), so no
operation is expected to fail.  The inputs of the known invariance faults
(tiny scale factors, far-off centres, huge radii) are left out.
"""

from __future__ import annotations

import numpy as np

import diskabc as D

from oracles import wronskian_taylor

#: Off-centre disk on which today's verdicts match the unit-disk ones.
OFF_CENTRE = (1.0, 0.5, 2.0)
UNIT = (0.0, 0.0, 1.0)
ALPHAS = (0.25, 0.5, 0.75)
TRUNCATION_LEVELS = (4, 8, 12)

# (degrees of f_0..f_n, whether the last function gets one double zero on
# the unit disk).  On the off-centre disk every zero is simple: there the
# absolute CLUSTER_TOL, applied to roots found about 0, splits a double zero
# that lies within about 0.2 R of another zero of the same f_j, so N_rad
# comes out one too high on some seeds (a known fault, see CHANGES.md).
CERTIFY_SHAPES = (((2, 3), False), ((0, 3, 4), False), ((1, 2, 3, 4), False),
                  ((3, 2), True), ((2, 0, 4), True), ((4, 1, 0, 3), True))
# distinct degrees, so that W is not constant and lambda_alpha is not
# rounding noise
DALPHA_SHAPES = ((2, 3), (1, 2, 4))
MASON_A_SHAPES = ((1, 2), (2, 2), (2, 3), (3, 3), (3, 4),
                  (4, 4), (1, 4), (4, 2), (2, 1), (3, 1))
MASON_B_SHAPES = ((2, 3), (1, 2, 3), (0, 2, 1, 3), (3, 1, 2))
WDB_SHAPES = ((6, 6, 6), (6, 5, 6, 6), (5, 6, 6), (6, 6, 4, 6))
# the minority of heavy exact operations: two degree-bound checks at n = 5
# and one Theorem B at n = 4, each a few tenths of a second today
HEAVY_WDB_SHAPES = ((6, 6, 6, 6, 6, 6), (6, 5, 6, 6, 6, 6))
HEAVY_MASON_B_SHAPE = (5, 5, 5, 5, 5)
LIMIT_SHAPES = ((1, 3), (0, 2, 3))
PAIR_SHAPES = ((4, 3), (6, 5))   # (deg f, number of zeros)


# ---------------------------------------------------------------------------
# numeric input generators

def _disk_point(rng, radius):
    return radius * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())


def _data(coeffs):
    return [[float(c.real), float(c.imag)] for c in coeffs]


def _separated(points, tol):
    pts = np.asarray(points, dtype=complex)
    if len(pts) < 2:
        return True
    d = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min()) >= tol


def random_system(rng, degrees, domain, double=False, min_modulus=0.0):
    """Polynomials f_0..f_n with zeros inside 0.8 of the disk, admissible
    for the certificate: zero sets of f_0..f_n and of their sum pairwise
    disjoint and off the circle, W bounded away from 0 on the circle and W'
    without zeros within 0.02 R of it.

    Returns ``{"fs": coefficients, "zeros": the zeros each f_j was built
    from}``; only the coefficients reach the program."""
    cre, cim, radius = domain
    center = complex(cre, cim)
    while True:
        fs, distinct, zeros = [], [], []
        for j, d in enumerate(degrees):
            roots = []
            while len(roots) < d:
                z = center + _disk_point(rng, 0.8 * radius)
                roots.append(z)
                distinct.append(z)
                if double and j == len(degrees) - 1 and len(roots) == 1 and d >= 2:
                    roots.append(z)
            lead = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
            fs.append(lead * np.poly(roots)[::-1] if roots else np.array([lead]))
            zeros.append(_data(roots))
        if _admissible(fs, distinct, center, radius, min_modulus):
            return {"fs": [_data(f) for f in fs], "zeros": zeros}


def _admissible(fs, distinct, center, radius, min_modulus):
    if not _separated(distinct, 1e-2 * radius):
        return False
    width = max(len(f) for f in fs)
    total = np.trim_zeros(sum(np.pad(f, (0, width - len(f))) for f in fs), "b")
    if not total.size:
        return False
    sum_roots = np.roots(total[::-1]) if total.size > 1 else np.zeros(0)
    if np.any(np.abs(np.abs(sum_roots - center) - radius) < 1e-3 * radius):
        return False
    inside = [z for z in sum_roots if abs(z - center) < radius]
    if not _separated(list(inside) + distinct, 1e-3 * radius):
        return False
    if min_modulus and min((abs(z - center) for z in inside + distinct),
                           default=1.0) < min_modulus * radius:
        return False
    b = wronskian_taylor(fs, center, radius)
    if float(np.abs(b).max()) <= 1e-9 * max(float(np.abs(f).max()) for f in fs) ** len(fs):
        return False
    if len(b) > 1:
        vals = np.abs(np.fft.ifft(b, n=512))
        if vals.min() < 1e-6 * vals.max():
            return False
        db = np.trim_zeros(np.arange(1, len(b)) * b[1:], "b")
        if db.size > 1 and np.any(np.abs(np.abs(np.roots(db[::-1])) - 1.0) < 0.02):
            return False
    return True


def random_pair(rng, degree, count):
    """Polynomial f with normal complex coefficients and the simple zeros of
    a Blaschke product, moduli in [0.1, 0.85], pairwise 0.05 apart."""
    f = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    if abs(f[-1]) < 0.1:
        f[-1] += 1.0
    zeros = []
    while len(zeros) < count:
        r = np.sqrt(0.1 ** 2 + (0.85 ** 2 - 0.1 ** 2) * rng.random())
        z = r * np.exp(2j * np.pi * rng.random())
        if _separated(zeros + [z], 0.05):
            zeros.append(z)
    return _data(f), _data(zeros)


# ---------------------------------------------------------------------------
# exact input generators (Gaussian-integer coefficients)

def _gaussian_poly(rng, degree, bound=3):
    c = rng.integers(-bound, bound + 1, size=(degree + 1, 2))
    while not c[-1].any():
        c[-1] = rng.integers(-bound, bound + 1, size=2)
    return c.tolist()


def _complex(p):
    return np.array([complex(re, im) for re, im in p])


def _roots(p):
    c = np.trim_zeros(_complex(p), "b")
    return np.roots(c[::-1]) if c.size > 1 else np.zeros(0)


def _disjoint(polys, tol=1e-3):
    """Zero sets pairwise farther apart than ``tol`` (a screen for coprimality;
    the oracles confirm it exactly)."""
    roots = [_roots(p) for p in polys]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if roots[i].size and roots[j].size and \
                    np.abs(roots[i][:, None] - roots[j][None, :]).min() < tol:
                return False
    return True


def _independent(polys):
    width = max(len(p) for p in polys)
    m = np.array([np.pad(_complex(p), (0, width - len(p))) for p in polys])
    s = np.linalg.svd(m, compute_uv=False)
    return len(polys) <= width and s[-1] > 1e-6 * s[0]


def _add(ps):
    width = max(len(p) for p in ps)
    total = np.zeros((width, 2), dtype=int)
    for p in ps:
        total[:len(p)] += np.asarray(p, dtype=int)
    out = total.tolist()
    while out and out[-1] == [0, 0]:
        out.pop()
    return out


def coprime_triple(rng, da, dc):
    while True:
        a, c = _gaussian_poly(rng, da), _gaussian_poly(rng, dc)
        b = _add([c, [[-re, -im] for re, im in a]])
        if b and _disjoint([a, c]):
            return a, b, c


def independent_tuple(rng, degrees, disjoint):
    while True:
        ps = [_gaussian_poly(rng, d) for d in degrees]
        total = _add(ps)
        if total and _independent(ps) and (not disjoint or _disjoint(ps + [total])):
            return ps


def limit_input(rng, degrees):
    """Exact p_0..p_n and five radii from 1.5x the largest zero modulus of
    the p_j and of W, growing by 4x."""
    ps = independent_tuple(rng, degrees, disjoint=False)
    w = np.trim_zeros(wronskian_taylor([_complex(p) for p in ps]), "b")
    moduli = [abs(z) for p in ps for z in _roots(p)]
    if w.size > 1:
        moduli += list(np.abs(np.roots(w[::-1])))
    rho = max(moduli + [1.0])
    return ps, [1.5 * rho * 4.0 ** k for k in range(5)]


# ---------------------------------------------------------------------------
# rounds

def _certify_round(rng):
    ops = []
    for domain in (UNIT, OFF_CENTRE):
        for degrees, double in CERTIFY_SHAPES:
            ops.append(("abc", dict(random_system(rng, degrees, domain,
                                                  double and domain == UNIT),
                                    domain=list(domain))))
    ops.append(("abc_monomial", {"n": int(rng.integers(1, 4))}))
    n = int(rng.integers(1, 4))
    ops.append(("abc_gapped", {"n": n, "m": int(rng.integers(n + 1, 11))}))
    for degrees in LIMIT_SHAPES:
        ps, radii = limit_input(rng, degrees)
        ops.append(("limit_r", {"ps": ps, "radii": radii}))
    return ops


def _exact_round(rng):
    ops = []
    for da, dc in MASON_A_SHAPES:
        a, b, c = coprime_triple(rng, da, dc)
        ops.append(("mason_a", {"a": a, "b": b, "c": c}))
    for degrees in MASON_B_SHAPES:
        ops.append(("mason_b", {"ps": independent_tuple(rng, degrees, True)}))
    for degrees in WDB_SHAPES + HEAVY_WDB_SHAPES:
        ops.append(("wdb", {"ps": independent_tuple(rng, degrees, False)}))
    ops.append(("mason_b", {"ps": independent_tuple(rng, HEAVY_MASON_B_SHAPE, True)}))
    return ops


def _dalpha_round(rng):
    # the median falls among the Theorem 4.1 checks of random and gapped
    # systems (9 of 21 operations, with 7 cheaper and 5 dearer), the 95th
    # percentile among the truncation studies (3 of 21)
    ops = []
    for alpha in ALPHAS:
        ops.append(("t41_monomial", {"n": int(rng.integers(1, 4)), "alpha": alpha}))
        n = int(rng.integers(1, 4))
        ops.append(("t41_gapped", {"n": n, "m": int(rng.integers(n + 1, 11)),
                                   "alpha": alpha}))
        for degrees in DALPHA_SHAPES:
            ops.append(("t41", dict(random_system(rng, degrees, UNIT, min_modulus=0.1),
                                    alpha=alpha)))
    for i, (degree, count) in enumerate(PAIR_SHAPES):
        f, zeros = random_pair(rng, degree, count)
        data = {"f": f, "zeros": zeros, "alpha": ALPHAS[i]}
        ops += [("r_alpha", data), ("r_alpha_area", data), ("monotone", data)]
    for alpha in ALPHAS:
        ops.append(("truncation", {"levels": list(TRUNCATION_LEVELS), "alpha": alpha}))
    return ops


ROUNDS = {"certify": _certify_round, "exact": _exact_round, "dalpha": _dalpha_round}


def make_round(workload, seed, index):
    """The operations of round ``index`` for ``seed``: a list of
    ``(kind, input data)``."""
    return ROUNDS[workload](np.random.default_rng([seed, index]))


def warmup_ops(workload):
    """One small operation of each kind, with fixed inputs.  The weighted
    area rule caches its nodes per alpha, so ``r_alpha_area`` is warmed at
    every alpha."""
    rng = np.random.default_rng(20110908)
    if workload == "certify":
        return [("abc", dict(random_system(rng, (1, 2), UNIT), domain=list(UNIT))),
                ("abc", dict(random_system(rng, (1, 2), OFF_CENTRE),
                             domain=list(OFF_CENTRE))),
                ("abc_monomial", {"n": 1}), ("abc_gapped", {"n": 1, "m": 2}),
                ("limit_r", dict(zip(("ps", "radii"), limit_input(rng, (0, 1)))))]
    if workload == "exact":
        a, b, c = coprime_triple(rng, 1, 1)
        return [("mason_a", {"a": a, "b": b, "c": c}),
                ("mason_b", {"ps": independent_tuple(rng, (1, 1), True)}),
                ("wdb", {"ps": independent_tuple(rng, (1, 2), False)})]
    f, zeros = random_pair(rng, 1, 1)
    ops = [("t41_monomial", {"n": 1, "alpha": 0.5}),
           ("t41_gapped", {"n": 1, "m": 2, "alpha": 0.5}),
           ("t41", dict(random_system(rng, (0, 1), UNIT, min_modulus=0.1), alpha=0.5)),
           ("r_alpha", {"f": f, "zeros": zeros, "alpha": 0.5}),
           ("monotone", {"f": f, "zeros": zeros, "alpha": 0.5}),
           ("truncation", {"levels": [2], "alpha": 0.5})]
    ops += [("r_alpha_area", {"f": f, "zeros": zeros, "alpha": a}) for a in ALPHAS]
    return ops


# ---------------------------------------------------------------------------
# running one operation

def _polyc(data):
    return D.PolyC.from_data(data)


def _polyq(ints):
    return D.PolyQ.from_rationals([tuple(c) for c in ints])


def _theta(zeros):
    return D.from_zeros(D.UNIT_DISK, [(complex(re, im), 1) for re, im in zeros])


def _domain(d):
    return D.DiskDomain(complex(d[0], d[1]), d[2])


def prepare(kind, data):
    """Build the program's input objects for one operation and return a
    zero-argument call that runs it.  Object construction stays outside the
    timed call; every call gets fresh objects, so no cached property is
    shared between operations."""
    if kind == "abc":
        fs, dom = [_polyc(f) for f in data["fs"]], _domain(data["domain"])
        return lambda: D.verify(D.build_system(fs, dom))
    if kind == "abc_monomial":
        return lambda: D.verify(D.build_system(D.monomial_family(data["n"]), D.UNIT_DISK))
    if kind == "abc_gapped":
        return lambda: D.verify(D.build_system(
            D.gapped_monomial_family(data["n"], data["m"]), D.UNIT_DISK))
    if kind == "limit_r":
        ps = [_polyq(p) for p in data["ps"]]
        return lambda: D.limit_R_study(ps, data["radii"])
    if kind == "mason_a":
        a, b, c = (_polyq(data[k]) for k in "abc")
        return lambda: D.verify_theorem_A(a, b, c)
    if kind == "mason_b":
        ps = [_polyq(p) for p in data["ps"]]
        return lambda: D.verify_theorem_B(ps)
    if kind == "wdb":
        ps = [_polyq(p) for p in data["ps"]]
        return lambda: D.wronskian_degree_bound_check(ps)
    if kind == "t41":
        fs = [_polyc(f) for f in data["fs"]]
        return lambda: D.verify_theorem_41(fs, data["alpha"])
    if kind == "t41_monomial":
        return lambda: D.verify_theorem_41(D.monomial_family(data["n"]), data["alpha"])
    if kind == "t41_gapped":
        return lambda: D.verify_theorem_41(
            D.gapped_monomial_family(data["n"], data["m"]), data["alpha"])
    if kind in ("r_alpha", "r_alpha_area", "monotone"):
        f, theta = _polyc(data["f"]), _theta(data["zeros"])
        name = {"r_alpha": "r_alpha", "r_alpha_area": "r_alpha_area",
                "monotone": "division_monotonicity_check"}[kind]
        return lambda: getattr(D, name)(f, theta, data["alpha"])
    if kind == "truncation":
        schedule = D.TruncationSchedule("geometric_boundary", tuple(data["levels"]))
        return lambda: D.truncation_study(schedule, data["alpha"])
    raise ValueError(f"unknown operation kind {kind!r}")


def encode(result):
    """JSON form of a program result."""
    if isinstance(result, list):
        return [encode(r) for r in result]
    if hasattr(result, "to_dict"):
        return result.to_dict()
    if isinstance(result, (bool, np.bool_)):
        return bool(result)
    return float(result)
