"""Polynomial algebra: arithmetic, Wronskians, roots, exact gcd machinery."""

import operator
from fractions import Fraction

import numpy as np
import pytest

from diskabc import (GaussianRational, NumericalFailure, PolyC, PolyQ,
                     ZeroList, aberth_roots, gcd_exact,
                     roots_with_multiplicity, squarefree_part, wronskian,
                     zero_table)
from families import random_polyq
from diskabc.polycore import _determinant


def q(*coeffs):
    return PolyQ.from_rationals(coeffs)


# Reference forms of the exact layer: plain cofactor recursion, and PolyQ
# product and division as loops over Fraction-based GaussianRationals.
# They are the oracles of the differential tests below.

def ref_determinant(m, mul=operator.mul):
    if len(m) == 1:
        return m[0][0]
    acc = None
    for j in range(len(m[0])):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = mul(m[0][j], ref_determinant(minor, mul))
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def wronskian_derivative(fs):
    """Derivative of the Wronskian by a second determinant: the Wronskian
    matrix with its last row replaced by the (n+1)-st derivatives.
    Identical to ``wronskian(fs).derivative()`` as a polynomial."""
    n = len(fs) - 1
    rows = [list(fs)]
    for _ in range(n + 1):
        rows.append([p.derivative() for p in rows[-1]])
    return _determinant(rows[:n] + [rows[n + 1]])


def ref_wronskian(fs):
    rows = [list(fs)]
    for _ in range(len(fs) - 1):
        rows.append([p.derivative() for p in rows[-1]])
    return ref_determinant(rows, ref_mul if isinstance(fs[0], PolyQ) else operator.mul)


def ref_mul(a, b):
    if a.is_zero or b.is_zero:
        return PolyQ()
    out = [GaussianRational()] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x.is_zero:
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return PolyQ(out)


def ref_divmod(a, b):
    r = list(a.coeffs)
    dq = len(r) - len(b.coeffs)
    if dq < 0:
        return PolyQ(), a
    quo = [GaussianRational()] * (dq + 1)
    lead = b.coeffs[-1]
    for k in range(dq, -1, -1):
        top = r[k + len(b.coeffs) - 1]
        if top.is_zero:
            continue
        f = top / lead
        quo[k] = f
        for j, c in enumerate(b.coeffs):
            r[k + j] = r[k + j] - f * c
    return PolyQ(quo), PolyQ(r)


def scaled_polyq(rng, degree):
    """random_polyq with each coefficient times a random nonzero Fraction."""
    return PolyQ(tuple(
        c * Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 10)),
                     int(rng.integers(1, 10)))
        for c in random_polyq(rng, degree).coeffs))


def random_polyc(rng, degree):
    return PolyC(tuple(rng.standard_normal(degree + 1)
                       + 1j * rng.standard_normal(degree + 1)))


def close_poly(p, q_, tol=1e-12):
    a, b = list(p.coeffs), list(q_.coeffs)
    n = max(len(a), len(b))
    a += [0j] * (n - len(a))
    b += [0j] * (n - len(b))
    scale = max(1.0, max((abs(c) for c in b), default=0.0))
    return all(abs(x - y) <= tol * scale for x, y in zip(a, b))


class TestBasics:
    def test_trailing_zeros_stripped(self):
        assert PolyC((1, 2, 0, 0)).coeffs == (1 + 0j, 2 + 0j)
        assert PolyC((0, 0)).is_zero

    def test_zero_degree_sentinel(self):
        assert PolyC().degree is None
        assert PolyQ().degree is None
        assert PolyC((5,)).degree == 0

    def test_eval_horner(self):
        p = PolyC((1, 2, 3))
        assert p(2.0) == pytest.approx(1 + 4 + 12)
        z = np.array([0.0, 1.0, 1j])
        assert np.allclose(p(z), [1, 6, 1 + 2j + 3 * 1j * 1j])

    def test_deflate(self):
        p = PolyC.from_roots([0.5, -0.25, 2.0])
        assert close_poly(p.deflate(0.5), PolyC.from_roots([-0.25, 2.0]))

    def test_polyq_arithmetic_exact(self):
        a = q(Fraction(1, 3), 2)
        b = q(Fraction(2, 3), -2, 1)
        assert (a + b) == q(1, 0, 1)
        assert (a * b).coeffs[0] == GaussianRational(Fraction(2, 9))

    def test_polyq_divmod(self):
        p = q(1, 0, -2, 0, 1)
        d = q(-1, 0, 1)
        quo, rem = p.divmod(d)
        assert rem.is_zero
        assert quo == q(-1, 0, 1)

    def test_gaussian_division(self):
        x = GaussianRational.of(1, 2)
        y = GaussianRational.of(3, -1)
        assert (x * y) / y == x

    def test_serialization_roundtrip(self):
        p = PolyC((1 + 2j, 0, -0.5j))
        assert PolyC.from_data(p.to_data()) == p
        e = q((1, Fraction(2, 3)), Fraction(-5, 7))
        assert PolyQ.from_data(e.to_data()) == e


class TestWronskian:
    def test_equality_family_constant(self):
        # f_j = eps z^j / j! with eps = 0.1: upper-triangular determinant eps^n
        fs = [PolyC((1,)), PolyC((0, 0.1)), PolyC((0, 0, 0.05))]
        w = wronskian(fs)
        assert w.degree == 0
        assert w.coeffs[0] == pytest.approx(0.01, rel=1e-15)

    def test_pair_trivial(self):
        assert wronskian([PolyC((1,)), PolyC((0, 1))]) == PolyC((1,))

    def test_z_z2(self):
        # symbolic 2x2 determinant: z * 2z - z^2 * 1 = z^2
        assert wronskian([PolyC((0, 1)), PolyC((0, 0, 1))]) == PolyC((0, 0, 1))

    def test_derivative_trivial(self):
        assert wronskian_derivative([PolyC((1,)), PolyC((0, 1))]).is_zero

    def test_derivative_z_z2(self):
        assert wronskian_derivative([PolyC((0, 1)), PolyC((0, 0, 1))]) == PolyC((0, 2))

    def test_derivative_gapped_family(self):
        # W(1, 0.1 z, 0.1 z^5/120) = (0.01/6) z^3 by the triangular structure,
        # so W' = 0.005 z^2
        fs = [PolyC((1,)), PolyC((0, 0.1)), PolyC.monomial(5, 0.1 / 120)]
        wd = wronskian_derivative(fs)
        assert close_poly(wd, wronskian(fs).derivative(), tol=1e-10)
        assert wd.degree == 2
        assert wd.coeffs[2] == pytest.approx(0.005, rel=1e-14)

    def test_derivative_matches_exactly_polyq(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            fs = [random_polyq(rng, int(rng.integers(0, 4))) for _ in range(3)]
            assert wronskian_derivative(fs) == wronskian(fs).derivative()

    def test_derivative_matches_polyc(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            fs = [PolyC(tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
                  for _ in range(3)]
            a, b = wronskian_derivative(fs), wronskian(fs).derivative()
            assert close_poly(a, b, tol=1e-10)

    def test_multilinear_and_alternating(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            f0, f1, f2, g = (random_polyq(rng, int(rng.integers(0, 4)))
                             for _ in range(4))
            c = GaussianRational.of(Fraction(3, 2))
            d = GaussianRational.of(-2, 1)
            lhs = wronskian([f0, c * f1 + d * g, f2])
            rhs = c * wronskian([f0, f1, f2]) + d * wronskian([f0, g, f2])
            assert lhs == rhs
            assert wronskian([f1, f0, f2]) == -wronskian([f0, f1, f2])
            assert wronskian([f0, f0, f2]).is_zero

    def test_degree_bound(self):
        # deg W <= sum deg - n(n+1)/2 whenever W != 0
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(30):
            fs = [random_polyq(rng, int(rng.integers(1, 5))) for _ in range(3)]
            w = wronskian(fs)
            if w.is_zero:
                continue
            checked += 1
            assert w.degree <= sum(f.degree for f in fs) - 3
        assert checked >= 20

    def test_type_mixing_rejected(self):
        with pytest.raises(TypeError):
            wronskian([PolyC((1,)), q(1)])
        with pytest.raises(ValueError):
            wronskian([])


class TestAgainstReference:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_polyq_wronskian(self, n):
        # distinct degrees and all degrees 6 give W != 0; then random degrees
        rng = np.random.default_rng(100 + n)
        shapes = [rng.permutation(7)[:n + 1], [6] * (n + 1)]
        shapes += [rng.integers(0, 7, n + 1) for _ in range(2 if n < 5 else 0)]
        for k, degrees in enumerate(shapes):
            fs = [scaled_polyq(rng, int(d)) for d in degrees]
            w = wronskian(fs)
            assert w == ref_wronskian(fs)
            assert k > 1 or not w.is_zero

    @pytest.mark.parametrize("n", range(1, 5))
    def test_polyc_wronskian_bit_identical(self, n):
        rng = np.random.default_rng(110 + n)
        for _ in range(10):
            fs = [random_polyc(rng, int(rng.integers(0, 7))) for _ in range(n + 1)]
            assert wronskian(fs) == ref_wronskian(fs)

    def test_product(self):
        rng = np.random.default_rng(120)
        for _ in range(40):
            a = scaled_polyq(rng, int(rng.integers(0, 9)))
            b = scaled_polyq(rng, int(rng.integers(0, 9)))
            assert a * b == ref_mul(a, b)
        assert q(1, 2) * PolyQ() == PolyQ()

    def test_divmod(self):
        rng = np.random.default_rng(121)
        divisors = [q(-1, 1), q(1, (0, 1)), q(2, 0, -1), q((1, 1), 0, (0, -3)),
                    q(Fraction(1, 3), Fraction(-2, 7)), q(5)]
        # Gaussian-integer leads, then rational ones
        divisors += [random_polyq(rng, int(rng.integers(0, 6))) for _ in range(15)]
        divisors += [scaled_polyq(rng, int(rng.integers(0, 6))) for _ in range(15)]
        for b in divisors:
            for a in (scaled_polyq(rng, int(rng.integers(0, 11))),
                      random_polyq(rng, int(rng.integers(0, 11))) * b, PolyQ()):
                quo, rem = a.divmod(b)
                assert (quo, rem) == ref_divmod(a, b)
                assert a == quo * b + rem
                assert rem.is_zero or rem.degree < b.degree

    def test_monic(self):
        rng = np.random.default_rng(122)
        for _ in range(20):
            p = scaled_polyq(rng, int(rng.integers(0, 8)))
            lead = p.coeffs[-1]
            assert p.monic() == PolyQ(tuple(c / lead for c in p.coeffs))


class TestAgainstSympy:
    @pytest.mark.parametrize("n", [5, 6])
    def test_wronskian(self, n):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        z = sympy.Symbol("z")
        ring = sympy.ZZ_I[z]

        def expr(p):
            return sum((sympy.Rational(c.re.numerator, c.re.denominator)
                        + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
                       * z ** k for k, c in enumerate(p.coeffs))

        rng = np.random.default_rng(130 + n)
        fs = [random_polyq(rng, 6) for _ in range(n + 1)]
        rows = [[ring.from_sympy(sympy.diff(expr(f), z, i)) for f in fs]
                for i in range(n + 1)]
        det = DomainMatrix(rows, (n + 1, n + 1), ring).det()
        w = wronskian(fs)
        assert not w.is_zero
        assert sympy.expand(expr(w) - ring.to_sympy(det)) == 0


class TestRoots:
    def test_double_plus_simple(self):
        p = PolyC.from_roots([0.5, 0.5, -0.3])
        zl = roots_with_multiplicity(p)
        assert [(round(a.real, 6), round(a.imag, 6), m) for a, m in zl] == [
            (-0.3, 0.0, 1), (0.5, 0.0, 2)]
        for a, _ in zl:
            assert abs(p(a)) <= 1e-10

    def test_monomial(self):
        zl = roots_with_multiplicity(PolyC.monomial(3))
        assert zl.entries == ((0j, 3),)

    def test_constant(self):
        assert roots_with_multiplicity(PolyC((5,))).entries == ()

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            roots_with_multiplicity(PolyC())

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            roots_with_multiplicity(PolyC.monomial(31))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = int(rng.integers(1, 13))
            roots = []
            while len(roots) < d:
                r = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                roots.append(r)
                if len(roots) < d and rng.random() < 0.3:
                    roots.append(r)  # double roots only; see module docstring
            lead = 0.5 + rng.random()
            p = PolyC.from_roots(roots, lead)
            zl = roots_with_multiplicity(p)
            assert zl.total == d
            recon = PolyC.from_roots(
                [a for a, m in zl for _ in range(m)], lead)
            assert close_poly(recon, p, tol=1e-6)
            scale = sum(abs(c) for c in p.coeffs)
            for a, _ in zl:
                assert abs(p(a)) <= 1e-8 * scale * max(1.0, abs(a)) ** d

    def test_aberth_standalone(self):
        p = PolyC.from_roots([1, 1j, -1, -1j, 0.5])
        got = sorted(aberth_roots(p), key=lambda z: (round(z.real, 8), round(z.imag, 8)))
        want = sorted([1, 1j, -1, -1j, 0.5], key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want, atol=1e-10)


class TestExact:
    def test_gcd_coprime(self):
        assert gcd_exact(q(0, 0, 1), q(1, 0, -1)) == q(1)

    def test_gcd_power(self):
        assert gcd_exact(q(0, 0, 1), q(0, 0, 0, 1)) == q(0, 0, 1)

    def test_gcd_idempotent(self):
        p = q(2, 0, 4)
        assert gcd_exact(p, p) == p.monic()

    def test_gcd_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd_exact(PolyQ(), PolyQ())

    def test_squarefree_mixed(self):
        # z^2 (1 - z^2) has distinct zeros {0, 1, -1}
        p = q(0, 0, 1) * q(1, 0, -1)
        s = squarefree_part(p)
        assert s.degree == 3
        assert s == (q(0, 1) * q(1, 0, -1)).monic()

    def test_squarefree_pure_power(self):
        p = q(-1, 1) * q(-1, 1) * q(-1, 1) * q(-1, 1)
        assert squarefree_part(p) == q(-1, 1)

    def test_squarefree_already(self):
        assert squarefree_part(q(1, 0, 1)) == q(1, 0, 1)

    def test_squarefree_idempotent(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = random_polyq(rng, int(rng.integers(1, 5)))
            s = squarefree_part(p)
            assert squarefree_part(s) == s


class TestZeroList:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZeroList(((0.5, 0),))
        with pytest.raises(ValueError):
            ZeroList(((0.5, 1), (0.5 + 1e-9, 1)))

    def test_merged(self):
        zl = ZeroList.merged([(0.5, 1), (0.5 + 1e-9, 2), (-0.3, 1)])
        assert zl.total == 4
        assert len(zl) == 2

    def test_canonical_order(self):
        a = ZeroList(((0.5, 1), (-0.3, 2)))
        b = ZeroList(((-0.3, 2), (0.5, 1)))
        assert a == b


class TestZeroTable:
    def test_rows(self):
        # 0.5 and 0.5 + 1e-9 are one point across lists, at the weighted
        # mean; a list with no zero there gets 0 in that column
        rows = zero_table([[(0.5, 2), (-0.3, 1)], [(0.5 + 1e-9, 1)], []])
        assert len(rows) == 2
        (a, ma), (b, mb) = sorted(rows, key=lambda r: r[0].real)
        assert (ma, mb) == ((1, 0, 0), (2, 1, 0))
        assert a == -0.3 and b == pytest.approx(0.5 + 1e-9 / 3, abs=1e-15)

    def test_empty(self):
        assert zero_table([]) == ()
        assert zero_table([[], ZeroList()]) == ()

    def test_merged_is_one_column(self):
        pairs = [(0.5, 1), (0.5 + 1e-9, 2), (-0.3, 1), (0.1j, 3)]
        rows = zero_table([pairs])
        assert all(len(ms) == 1 for _, ms in rows)
        assert ZeroList.merged(pairs) == ZeroList(tuple((a, m) for a, (m,) in rows))
