"""Quadrature engines and norm computations against independent oracles."""

import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import beta as beta_fn
from scipy.special import ellipe

from diskabc import (DiskDomain, HypothesisFailure,
                     NumericalFailure, PolyC, UNIT_DISK,
                     boundary_extrema, boundary_integral, dalpha_norm_coeff,
                     dirichlet_norm_area, disk_area_mean, from_zeros,
                     inf_boundary, sup_boundary)
from families import random_coeff_polyc, random_smooth_pair
from diskabc.quadrature import _gauss_jacobi
from references import AnalyticProduct, dalpha_norm_area


def _in_disk_variable(coeffs, domain):
    """The PolyC in z equal to ``sum coeffs[k] ((z - c)/R)^k``."""
    w = PolyC((-domain.center / domain.radius, 1.0 / domain.radius))
    p = PolyC()
    for c in reversed(coeffs):
        p = p * w + PolyC((c,))
    return p


class TestBoundaryIntegral:
    def test_unit_mass(self):
        assert boundary_integral(lambda z: np.ones(z.shape), UNIT_DISK) == \
            pytest.approx(1.0)

    def test_monomial_derivative_mean_is_count(self):
        b = from_zeros(UNIT_DISK, [(0, 2)])
        assert boundary_integral(b.boundary_derivative_modulus, UNIT_DISK) == \
            pytest.approx(2.0, abs=1e-12)

    def test_abs_shifted(self):
        # oracle: 2^20-sample trapezoid of |zeta + 3| on the unit circle,
        # cross-checked against the elliptic closed form (8/pi) E(3/4)
        t = 2.0 * np.pi * np.arange(1 << 20) / (1 << 20)
        oracle = float(np.abs(np.exp(1j * t) + 3.0).mean())
        assert oracle == pytest.approx(8.0 / np.pi * ellipe(0.75), abs=1e-12)
        val = boundary_integral(lambda z: np.abs(z + 3.0), UNIT_DISK)
        assert val == pytest.approx(oracle, abs=1e-6)
        assert val == pytest.approx(3.0839288503800790, abs=1e-6)

    def test_radius_scaling(self):
        # the measure ds/(2 pi) gives a circle of radius R total mass R
        dom = DiskDomain(0, 5.0)
        assert boundary_integral(lambda z: np.ones(z.shape), dom) == \
            pytest.approx(5.0)

    @pytest.mark.parametrize("s", [1.0, 1e-3, 1e-6])
    def test_convergence_test_is_relative(self, s):
        # the stopping test scales with the estimate: a scaled integrand gives
        # the scaled value, and a kink too sharp for the refinement limit
        # raises at every scale rather than passing once the integral is small
        ref = boundary_integral(lambda z: np.abs(z - 1.001), UNIT_DISK)
        val = boundary_integral(lambda z: s * np.abs(z - 1.001), UNIT_DISK)
        assert val / s == pytest.approx(ref, rel=1e-14)
        with pytest.raises(NumericalFailure):
            boundary_integral(lambda z: s * np.abs(z - 1.0001), UNIT_DISK)


class TestSupInf:
    def test_linear(self):
        p = PolyC((3, 1))
        assert sup_boundary(p, UNIT_DISK) == pytest.approx(4.0, abs=1e-12)
        assert inf_boundary(p, UNIT_DISK) == pytest.approx(2.0, abs=1e-12)

    def test_constant(self):
        p = PolyC((2 - 1j,))
        v = abs(2 - 1j)
        assert sup_boundary(p, UNIT_DISK) == pytest.approx(v)
        assert inf_boundary(p, UNIT_DISK) == pytest.approx(v)

    def test_vanishing_is_hypothesis_failure(self):
        # |z^3 + z| vanishes at zeta = +-i
        with pytest.raises(HypothesisFailure):
            inf_boundary(PolyC((0, 1, 0, 1)), UNIT_DISK)

    def test_polish_beats_grid(self):
        # extremum of |z - 0.9 e^{i t0}| sits strictly between grid points
        t0 = 2.0 * np.pi * (10.37 / 1024)
        p = PolyC((-0.9 * np.exp(1j * t0), 1.0))
        assert inf_boundary(p, UNIT_DISK) == pytest.approx(0.1, abs=1e-10)
        assert sup_boundary(p, UNIT_DISK) == pytest.approx(1.9, abs=1e-10)

    def test_polish_beats_grid_off_centre(self):
        # |w^10 - 0.9 e^{i 10 t0}| with w = (z - c)/R: ten minima 0.1 and ten
        # maxima 1.9, every one a tenth of a spacing or more off the grid
        dom = DiskDomain(1 + 0.5j, 2.0)
        t0 = 2.0 * np.pi * (10.1 / 1024)
        p = _in_disk_variable((-0.9 * np.exp(10j * t0),) + (0,) * 9 + (1,), dom)
        grid = np.abs(p(dom.boundary_points(1024)))
        assert grid.min() > 0.1 + 1e-6 and grid.max() < 1.9 - 1e-6
        assert inf_boundary(p, dom) == pytest.approx(0.1, abs=1e-10)
        assert sup_boundary(p, dom) == pytest.approx(1.9, abs=1e-10)

    @pytest.mark.parametrize("dom", [DiskDomain(1 + 0.5j, 2.0),
                                     DiskDomain(-0.3j, 0.7)])
    def test_dense_sample_bracket(self, dom):
        # oracle: a 2^18-point sample of |p| with the Bernstein bound
        # |d/dt p(c + R e^{it})| <= deg * sup, so the true extrema lie within
        # deg * sup * h / 2 of the sampled ones (h the dense grid spacing).
        # Normal coefficients in (z - c)/R rather than in z keep inf |p| on
        # the off-centre circle well above the vanishing floor.
        rng = np.random.default_rng(25)
        dense = dom.boundary_points(1 << 18)
        h = 2.0 * np.pi / (1 << 18)
        for _ in range(12):
            p = _in_disk_variable(random_coeff_polyc(rng, 30).coeffs, dom)
            vals = np.abs(p(dense))
            smax, smin = vals.max(), vals.min()
            sup = sup_boundary(p, dom)
            slack = p.degree * sup * h / 2
            assert smax * (1 - 1e-14) <= sup <= smax + slack
            inf = inf_boundary(p, dom)
            assert smin - slack <= inf <= smin * (1 + 1e-12)
            assert boundary_extrema(p, dom) == (sup, inf)

    def test_constant_off_centre(self):
        p = PolyC((2 - 1j,))
        dom = DiskDomain(3j, 0.5)
        assert sup_boundary(p, dom) == abs(2 - 1j)
        assert inf_boundary(p, dom) == abs(2 - 1j)
        assert boundary_extrema(p, dom) == (abs(2 - 1j), abs(2 - 1j))

    def test_zero_polynomial(self):
        assert sup_boundary(PolyC(), UNIT_DISK) == 0.0
        with pytest.raises(HypothesisFailure) as err:
            inf_boundary(PolyC(), UNIT_DISK)
        assert err.value.reason == "boundary_vanishing"

    @pytest.mark.parametrize("p", [PolyC(), PolyC((-1, 1))])
    def test_extrema_vanishing(self, p):
        with pytest.raises(HypothesisFailure) as err:
            boundary_extrema(p, UNIT_DISK)
        assert err.value.reason == "boundary_vanishing"

    def test_vanishing_floor_is_relative(self):
        # |z - 2| on the unit circle: 1 <= |p| <= 3 at every scale; |z - 1|
        # vanishes at 1 at every scale
        for c in (1e-30, 1e-8, 1.0, 1e8, 1e30j):
            assert inf_boundary(c * PolyC((-2, 1)), UNIT_DISK) == \
                pytest.approx(abs(c), rel=1e-12)
            with pytest.raises(HypothesisFailure) as err:
                inf_boundary(c * PolyC((-1, 1)), UNIT_DISK)
            assert err.value.reason == "boundary_vanishing"

    def test_polynomials_only(self):
        with pytest.raises(TypeError):
            sup_boundary(lambda z: z, UNIT_DISK)


class TestGaussJacobi:
    @pytest.mark.parametrize("n", [8, 64, 128])
    @pytest.mark.parametrize("gamma", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_exact_moments(self, n, gamma):
        # oracle: int (1-x)^gamma (1+x)^j dx = 2^(gamma+j+1) B(gamma+1, j+1),
        # which the n-point rule integrates exactly for every j <= 2n - 1
        x, w = _gauss_jacobi(n, gamma)
        for j in range(2 * n):
            exact = math.exp((gamma + j + 1) * math.log(2.0)
                             + math.lgamma(gamma + 1) + math.lgamma(j + 1)
                             - math.lgamma(gamma + j + 2))
            assert np.sum(w * (1 + x) ** j) == pytest.approx(exact, rel=2e-12)

    @pytest.mark.parametrize("n", [8, 64, 128])
    def test_legendre(self, n):
        x, w = _gauss_jacobi(n, 0.0)
        xl, wl = leggauss(n)
        assert np.max(np.abs(x - xl)) <= 1e-14
        assert np.max(np.abs(w - wl)) <= 1e-14


def test_import_leaves_scipy_out():
    code = ("import sys, diskabc; "
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


class TestDirichlet:
    def test_monomials(self):
        assert dirichlet_norm_area(PolyC((0, 0, 1)), UNIT_DISK) == \
            pytest.approx(2.0, abs=1e-9)
        assert dirichlet_norm_area(PolyC((0, 1)), UNIT_DISK) == \
            pytest.approx(1.0, abs=1e-12)
        assert dirichlet_norm_area(PolyC((7,)), UNIT_DISK) == 0.0

    def test_coefficient_formula(self):
        # oracle: ||f||^2_D = sum k |c_k|^2 for polynomials on the unit disk
        rng = np.random.default_rng(21)
        for _ in range(5):
            f = random_coeff_polyc(rng, 6)
            want = sum(k * abs(c) ** 2 for k, c in enumerate(f.coeffs))
            assert dirichlet_norm_area(f, UNIT_DISK) == \
                pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("dom", [DiskDomain(1 + 0.5j, 2.0),
                                     DiskDomain(-0.3j, 0.7)])
    def test_closed_form_matches_area_rule(self, dom):
        # the FFT closed form against Gauss-Legendre x trapezoid of |p'|^2
        rng = np.random.default_rng(26)
        for _ in range(6):
            p = random_coeff_polyc(rng, 30)
            dp = p.derivative()
            want = disk_area_mean(lambda z: np.abs(dp(z)) ** 2, dom)
            assert dirichlet_norm_area(p, dom) == pytest.approx(want, rel=1e-9)

    def test_area_mean_constant(self):
        dom = DiskDomain(2 - 1j, 3.0)
        # (1/pi) * area = R^2
        assert disk_area_mean(lambda z: np.ones(z.shape), dom) == \
            pytest.approx(9.0)


class TestMultiplicativeIdentity:
    def test_dirichlet_of_inner_multiple(self):
        # ||f B||^2 = ||f||^2 + boundary mean of |f|^2 |B'|, exactly
        rng = np.random.default_rng(22)
        for _ in range(8):
            f, b = random_smooth_pair(rng, f_degree=6, max_distinct=5)
            lhs = dirichlet_norm_area(AnalyticProduct(f, b), UNIT_DISK)
            rhs = dirichlet_norm_area(f, UNIT_DISK) + boundary_integral(
                lambda z: np.abs(f(z)) ** 2 * b.boundary_derivative_modulus(z),
                UNIT_DISK)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_derivative_l1_lower_bound(self):
        # boundary mean of |(fB)'| dominates that of |f| |B'|
        rng = np.random.default_rng(23)
        prod_ = None
        for _ in range(8):
            f, b = random_smooth_pair(rng, f_degree=6, max_distinct=5)
            prod_ = AnalyticProduct(f, b)
            lhs = boundary_integral(
                lambda z: np.abs(prod_.derivative_eval(z)), UNIT_DISK)
            rhs = boundary_integral(
                lambda z: np.abs(f(z)) * b.boundary_derivative_modulus(z),
                UNIT_DISK)
            assert lhs >= rhs - 1e-8


class TestDalphaCoeff:
    def test_monomials_exact(self):
        for m in (1, 3, 20):
            for alpha in (0.25, 0.5, 0.75, 1.0):
                assert dalpha_norm_coeff(PolyC.monomial(m), alpha) == m ** alpha

    def test_constant_is_zero(self):
        assert dalpha_norm_coeff(PolyC((1,)), 0.5) == 0.0

    def test_three_terms(self):
        assert dalpha_norm_coeff(PolyC((1, 1, 1)), 0.5) == \
            pytest.approx(1 + math.sqrt(2), abs=1e-14)

    def test_alpha_domain(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                dalpha_norm_coeff(PolyC((0, 1)), bad)
            with pytest.raises(ValueError):
                dalpha_norm_area(PolyC((0, 1)), bad)


class TestDalphaArea:
    def test_alpha_one_is_dirichlet(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            f = random_coeff_polyc(rng, 6)
            a = dalpha_norm_area(f, 1.0)
            assert a == pytest.approx(dirichlet_norm_area(f, UNIT_DISK), rel=1e-9)
            assert a == pytest.approx(dalpha_norm_coeff(f, 1.0), rel=1e-9)

    def test_linear_closed_form(self):
        # oracle: 2 * Beta(2, 2 - alpha) from the radial integral
        for alpha in (0.25, 0.5, 0.75):
            want = 2.0 * beta_fn(2.0, 2.0 - alpha)
            assert dalpha_norm_area(PolyC((0, 1)), alpha) == \
                pytest.approx(want, rel=1e-11)
        assert dalpha_norm_area(PolyC((0, 1)), 0.5) == pytest.approx(8 / 15)

    def test_constant(self):
        assert dalpha_norm_area(PolyC((3,)), 0.5) == 0.0

    def test_monomial_beta_oracle(self):
        # ||z^m||^2 area route: 2 m^2 Beta(2m, 2 - alpha)
        for m, alpha in ((2, 0.25), (3, 0.5), (5, 0.75)):
            want = 2.0 * m * m * beta_fn(2.0 * m, 2.0 - alpha)
            assert dalpha_norm_area(PolyC.monomial(m), alpha) == \
                pytest.approx(want, rel=1e-11)


class TestComparability:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_area_coeff_bracket_stable(self, alpha):
        # the two norms are equivalent with alpha-dependent constants; the
        # measured min/max ratio over a random family must be reproducible
        def bracket(seed):
            rng = np.random.default_rng(seed)
            ratios = []
            for _ in range(100):
                f = random_coeff_polyc(rng, 6)
                ratios.append(dalpha_norm_area(f, alpha)
                              / dalpha_norm_coeff(f, alpha))
            return min(ratios), max(ratios)

        lo1, hi1 = bracket(101)
        lo2, hi2 = bracket(202)
        assert 0 < lo1 <= hi1
        assert abs(lo1 - lo2) <= 0.1 * lo1
        assert abs(hi1 - hi2) <= 0.1 * hi1
        print(f"alpha={alpha}: area/coeff ratio bracket "
              f"[{min(lo1, lo2):.4f}, {max(hi1, hi2):.4f}]")
