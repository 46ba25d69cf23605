"""Tests of the benchmark's oracles, apart from the program.

    python3 -m pytest -q perfbench/check_oracles.py

The file name keeps it out of the repository's own test collection; it
tests the reference computations in ``oracles.py`` against brute force and
known closed forms, and that each check rejects a wrong output.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as O  # noqa: E402
from run import parse_importtime  # noqa: E402


def _brute_coeffs(fn, size=1 << 14):
    z = np.exp(2j * np.pi * np.arange(size) / size)
    return np.fft.fft(fn(z)) / size


def _blaschke(zeros):
    def fn(z):
        out = np.ones_like(z)
        for a in zeros:
            out = out * (z - a) / (1 - np.conj(a) * z)
        return out
    return fn


def test_wronskian_taylor_matches_sympy():
    ps = [[(1, 2), (0, -1), (3, 0)], [(2, 0), (1, 1)], [(0, 1), (0, 0), (0, 0), (1, -2)]]
    exact = O.sympy_wronskian([O.zzi_poly(p) for p in ps])
    want = np.array([complex(c) for c in exact.all_coeffs()[::-1]])
    got = O.wronskian_taylor([[complex(*c) for c in p] for p in ps])
    got = np.trim_zeros(np.where(np.abs(got) < 1e-12, 0, got), "b")
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_wronskian_taylor_shifted_disk():
    # W = f0 f1' - f0' f1 for f0 = 1, f1 = z^3: 3 z^2, at z = c + R w
    c, r = 1 + 0.5j, 2.0
    b = O.wronskian_taylor([[1.0], [0, 0, 0, 1.0]], c, r)
    want = 3 * np.array([c * c, 2 * c * r, r * r])
    assert np.allclose(b, want, rtol=1e-13)


def test_monomial_family_wronskian_is_constant():
    eps = 0.1
    fs = [[1.0]] + [[0.0] * j + [eps / math.factorial(j)] for j in range(1, 4)]
    b = O.wronskian_taylor(fs)
    assert len(b) == 1 and abs(b[0] - eps ** 3) < 1e-15


def test_dirichlet_sum_matches_polar_quadrature():
    rng = np.random.default_rng(5)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x, w = np.polynomial.legendre.leggauss(60)
    r = (x + 1) / 2
    t = 2 * np.pi * np.arange(256) / 256
    z = r[:, None] * np.exp(1j * t)[None, :]
    db = np.arange(1, 6) * b[1:]
    vals = np.abs(np.polynomial.polynomial.polyval(z, db)) ** 2
    area = float(np.sum(w / 2 * r * vals.mean(axis=1))) * 2
    assert O.dirichlet_sum(b) == pytest.approx(area, rel=1e-12)


def test_bracket_and_derivative_l1_on_known_polynomial():
    b = np.array([2.0, 0, 0, 1.0])      # g = 2 + w^3: sup 3, inf 1, |g'| = 3
    sup_lo, sup_hi, inf_lo, inf_hi = O.bracket(b)
    assert sup_lo <= 3.0 <= sup_hi and inf_lo <= 1.0 <= inf_hi
    assert sup_hi / sup_lo - 1 < 1e-3
    assert O.derivative_l1(b) == pytest.approx(3.0, rel=1e-14)


def test_single_zero_norm_closed_form():
    a, alpha = 0.6 * np.exp(0.7j), 0.5
    k = np.arange(1, 400)
    want = np.sum(k ** alpha * (1 - abs(a) ** 2) ** 2 * abs(a) ** (2 * (k - 1)))
    assert O.product_dalpha_norm([1.0], [a], alpha) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_product_norm_matches_fft(alpha):
    rng = np.random.default_rng(11)
    f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    zeros = [0.15 * np.exp(1j), 0.5 - 0.3j, -0.7j, 0.8]
    c = _brute_coeffs(lambda z: np.polynomial.polynomial.polyval(z, f) * _blaschke(zeros)(z))
    k = np.arange(1, len(c) // 2)
    want = float(np.sum(k ** alpha * np.abs(c[1:len(c) // 2]) ** 2))
    assert O.product_dalpha_norm(f, zeros, alpha) == pytest.approx(want, rel=1e-11)


def test_blaschke_recurrence_matches_polylog():
    rng = np.random.default_rng(3)
    zeros = 0.1 + 0.85 * rng.random(11)
    zeros = zeros * np.exp(2j * np.pi * rng.random(11))
    zeros[1] = zeros[0] + 1e-3          # a close pair: large residues
    for alpha in (0.25, 0.75):
        assert O.blaschke_dalpha_norm(zeros, alpha) == pytest.approx(
            O.product_dalpha_norm([1.0], zeros, alpha), rel=1e-12)


def test_truncation_table_matches_recomputation_and_fft():
    for alpha in O.TRUNCATION_ALPHAS:
        for level in (1, 3):
            assert O.truncation_norm(level, alpha) == O.geometric_truncation_norm(level, alpha)
    zeros = [1 - 2.0 ** -k for k in range(1, 5)]
    c = _brute_coeffs(_blaschke(zeros), 1 << 16)
    k = np.arange(1, len(c) // 2)
    want = float(np.sum(k ** 0.5 * np.abs(c[1:len(c) // 2]) ** 2))
    assert O.truncation_norm(4, 0.5) == pytest.approx(want, rel=1e-12)


def test_distinct_zero_counts_with_double_zero():
    inp = {"fs": [[[1.0, 0.0]], [[0.25, 0.0], [-1.0, 0.0], [1.0, 0.0]]],
           "zeros": [[], [[0.5, 0.0], [0.5, 0.0]]]}
    # f0 + f1 = z^2 - z + 1.25 has zeros 0.5 +- i, outside the unit disk
    assert O.distinct_zero_counts(O.interior_zeros(inp)) == (2, 1)


def _gapped_certificate(n, m):
    return {"N_lcm": m, "N_rad": 1, "lhs": m, "lambda": math.sqrt(m - n),
            "kappa": float(m - n), "mu": 1.0, "rhs_21": float(m), "rhs_22": float(m),
            "pass_21": True, "pass_22": True, "hypothesis_ok": True,
            "divisibility_ok": True}


def test_checks_accept_closed_forms_and_reject_wrong_values():
    good = _gapped_certificate(2, 5)
    assert O.check_abc_gapped({"n": 2, "m": 5}, good) == []
    for key, value in (("lambda", 1.8), ("N_rad", 2), ("mu", 1.001)):
        assert O.check_abc_gapped({"n": 2, "m": 5}, dict(good, **{key: value}))
    report = {"alpha": 0.5, "n": 2, "norm_B_lcm_sq": 6 ** 0.5, "norm_B_rad_sq": 1.0,
              "lambda_alpha": 3 ** 0.5 / 2, "mu": 1.0}
    report["ratio"] = 6 ** 0.5 / (0.75 + 2)
    inp = {"n": 2, "m": 6, "alpha": 0.5}
    # lambda_alpha above is wrong on purpose: the closed-form ratio catches it
    assert O.check_t41_gapped(inp, report)
    report["lambda_alpha"] = 4 ** 0.25
    report["ratio"] = 6 ** 0.5 / (4 ** 0.5 + 2)
    assert O.check_t41_gapped(inp, report) == []


def test_exact_checks():
    a = [(0, 0), (0, 0), (1, 0)]          # z^2
    c = [(1, 0)]                         # 1
    b = [(1, 0), (0, 0), (-1, 0)]        # 1 - z^2
    out = {"degrees": [2, 2, 0], "max_degree": 2, "n_distinct": 3, "bound": 3,
           "holds": True}
    assert O.check_mason_a({"a": a, "b": b, "c": c}, out) == []
    assert O.check_mason_a({"a": a, "b": b, "c": c}, dict(out, n_distinct=4, bound=4))
    ps = [[(1, 0)], [(0, 0), (1, 0)], [(0, 0), (0, 0), (1, 0)]]
    assert O.check_wdb({"ps": ps}, True) == []
    assert O.check_wdb({"ps": ps}, False)


def test_record_round_trip_through_json():
    rec = {"kind": "abc_monomial", "input": {"n": 2},
           "output": dict(_gapped_certificate(2, 2), **{"lambda": 0.0, "kappa": 0.0})}
    assert O.check(json.loads(json.dumps(rec))) == []


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:       400 |        400 |     scipy.special._ufuncs",
        "import time:       500 |        900 |   scipy.special",
        "import time:        50 |       1300 | diskabc",
    ])
    assert parse_importtime(text) == (1300e-6, 1200e-6)
