import cmath
import math
import random
from fractions import Fraction

import pytest

from kummeru import gammakit
from kummeru.gammakit import (EULER_GAMMA, QuadratureSpec, RECIP_GAMMA_COEFFS,
                              g_quadrature, g_resolve, g_series, gamma_fn,
                              generate_ck, recip_gamma, zeta)
from kummeru.numcore import DomainError

SQRT_PI = math.sqrt(math.pi)


class TestRecipGamma:
    def test_at_one(self):
        assert abs(recip_gamma(1.0) - 1.0) <= 5e-15

    def test_zeros_at_nonpositive_integers(self):
        assert recip_gamma(0.0) == 0j
        assert recip_gamma(-1.0) == 0j
        assert recip_gamma(-2.0) == 0j

    def test_at_half(self):
        assert abs(recip_gamma(0.5) - 1.0 / SQRT_PI) <= 5e-15

    def test_reduction_region(self):
        # Gamma(3) = 2, Gamma(-1.5) = 4 sqrt(pi)/3
        assert abs(recip_gamma(3.0) - 0.5) <= 5e-15
        assert abs(recip_gamma(-1.5) - 3.0 / (4.0 * SQRT_PI)) <= 5e-15

    def test_duplication_consistency_tall_imaginary(self):
        # the halving identity must agree with the direct series where
        # both apply: compare 1/Gamma(2w) against the assembled product
        for w in (0.3 + 0.55j, -0.2 + 0.6j, 0.1 - 0.62j):
            lhs = recip_gamma(2 * w)
            rhs = SQRT_PI * cmath.exp((1 - 2 * w) * math.log(2.0)) \
                * recip_gamma(w) * recip_gamma(w + 0.5)
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("w", [-171.2, -171.5, -180.3])
    def test_overflow_is_domain_error(self, w):
        with pytest.raises(DomainError, match="1/Gamma overflows the double"):
            recip_gamma(w)
        with pytest.raises(DomainError, match="1/Gamma overflows the double"):
            gamma_fn(w)

    def test_largest_magnitude_below_overflow(self):
        mp = pytest.importorskip("mpmath")
        ref = float(mp.rgamma(-170.5))
        assert abs(recip_gamma(-170.5).real - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("w", [float("nan"), 2000.0, -2000.5])
    def test_argument_too_large(self, w):
        with pytest.raises(DomainError, match="1024"):
            recip_gamma(w)


class TestGammaFn:
    def test_gamma_two(self):
        assert abs(gamma_fn(2.0) - 1.0) <= 1e-14

    def test_gamma_two_point_five(self):
        # Gamma(2.5) = (3/2)(1/2) sqrt(pi)
        assert abs(gamma_fn(2.5) - 0.75 * SQRT_PI) <= 1e-13

    def test_pole_is_domain_error(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-3.0)

    @pytest.mark.parametrize("w", [171.7, 172.5, 175.0, 178.0, 178.6, 200.0])
    def test_overflow_is_domain_error(self, w):
        # 1/Gamma is subnormal from w ~ 171.7 to 178.5 (1/r is inf), 0 beyond
        with pytest.raises(DomainError, match="overflows the double range"):
            gamma_fn(w)

    def test_largest_finite_value(self):
        assert math.isfinite(gamma_fn(171.6).real)

    def test_product_consistency_grid(self):
        pts = [complex(x, y)
               for x in [-2 + 0.44 * i for i in range(10)]
               for y in [-2 + 0.44 * i for i in range(10)]]
        for w in pts:
            if w.imag == 0 and w.real <= 0 and abs(w.real - round(w.real)) < 0.05:
                continue
            assert abs(recip_gamma(w) * gamma_fn(w) - 1.0) <= 1e-13


class TestTable:
    def test_head_coefficients(self):
        assert RECIP_GAMMA_COEFFS[0] == 1.0
        assert EULER_GAMMA == RECIP_GAMMA_COEFFS[1] == 0.57721566490153286061
        assert len(RECIP_GAMMA_COEFFS) == 28

    def test_recursion_residual_small_k(self):
        c = (0.0,) + RECIP_GAMMA_COEFFS  # 1-based view
        zs = {k: zeta(k) for k in range(2, 10)}
        for k in range(3, 11):
            s = EULER_GAMMA * c[k - 1]
            sign = -1.0
            for j in range(2, k):
                s += sign * zs[j] * c[k - j]
                sign = -sign
            assert abs((k - 1) * c[k] - s) <= 1e-12


class TestZetaAndGenerateCk:
    def test_zeta_even_closed_forms(self):
        assert abs(zeta(2) - math.pi ** 2 / 6) <= 1e-15 * zeta(2)
        assert abs(zeta(4) - math.pi ** 4 / 90) <= 1e-15 * zeta(4)
        assert abs(zeta(6) - math.pi ** 6 / 945) <= 1e-15 * zeta(6)

    def test_first_two(self):
        c = generate_ck(10)
        assert c[0] == 1.0
        assert c[1] == EULER_GAMMA

    def test_c3_closed_form(self):
        c = generate_ck(4)
        expect = (EULER_GAMMA ** 2 - math.pi ** 2 / 6) / 2.0
        assert abs(c[2] - expect) <= 1e-14
        assert abs(c[2] - RECIP_GAMMA_COEFFS[2]) <= 1e-14

    def test_c4_against_table(self):
        c = generate_ck(4)
        assert abs(c[3] - RECIP_GAMMA_COEFFS[3]) <= 1e-12 * abs(RECIP_GAMMA_COEFFS[3])

    def test_matches_table_through_k10(self):
        c = generate_ck(10)
        for k in range(1, 11):
            assert abs(c[k - 1] - RECIP_GAMMA_COEFFS[k - 1]) \
                <= 1e-12 * abs(RECIP_GAMMA_COEFFS[k - 1])

    def test_warning_past_table(self):
        with pytest.warns(RuntimeWarning):
            generate_ck(30)


class TestGSeries:
    def test_at_origin_is_euler_gamma(self):
        assert abs(g_series(0.0, 0.0) - EULER_GAMMA) <= 1e-15

    def test_half_shift_closed_form(self):
        # G(0, 1/2) = (1/Gamma(1.5) - 1)/(1/2) = (2/sqrt(pi) - 1)/0.5
        expect = (2.0 / SQRT_PI - 1.0) / 0.5
        assert abs(g_series(0.0, 0.5) - expect) <= 1e-13

    def test_against_quadrature_point(self):
        gs = g_series(0.25, -0.25)
        gq = g_quadrature(0.25, -0.25)
        assert abs(gs - gq) <= 1e-13

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            g_series(1.2, 0.0)
        with pytest.raises(DomainError):
            g_series(0.6, 0.6)

    def test_b_symmetry(self):
        for a in (-0.4, -0.2, 0.0, 0.2, 0.4):
            for b in (-0.3, -0.1, 0.1, 0.3):
                if abs(a + b) > 0.5:
                    continue
                assert abs(g_series(a, b) - g_series(a + b, -b)) <= 1e-13

    def test_dk_recurrence_against_exact_rationals(self):
        # d_k = ((a+b)^{k-1} - a^{k-1})/b evaluated exactly in Fraction
        rng = random.Random(5)
        checked = 0
        while checked < 20:
            a = rng.uniform(-0.5, 0.5)
            b = rng.uniform(1e-3, 0.5) * rng.choice([-1.0, 1.0])
            if abs(a + b) > 0.5:
                continue
            checked += 1
            fa, fb = Fraction(a), Fraction(b)
            d = {2: 1.0, 3: 2.0 * a + b}
            for k in range(4, 13):
                d[k] = (2.0 * a + b) * d[k - 1] - a * (a + b) * d[k - 2]
            for k in range(2, 13):
                exact = float(((fa + fb) ** (k - 1) - fa ** (k - 1)) / fb)
                assert abs(d[k] - exact) <= 1e-10 * max(abs(exact), 1e-30)


class TestGQuadrature:
    def test_origin_limit(self):
        assert abs(g_quadrature(0.0, 0.0) - EULER_GAMMA) <= 1e-13

    def test_half_shift(self):
        expect = (2.0 / SQRT_PI - 1.0) / 0.5
        assert abs(g_quadrature(0.0, 0.5) - expect) <= 1e-13

    def test_node_doubling_self_convergence(self):
        grid = [-0.5, -0.25, 0.0, 0.25, 0.5]
        s64 = QuadratureSpec(radius=1.0, nodes=64)
        s128 = QuadratureSpec(radius=1.0, nodes=128)
        for a in grid:
            for b in grid:
                if abs(a + b) > 0.5:
                    continue
                assert abs(g_quadrature(a, b, s64) - g_quadrature(a, b, s128)) <= 1e-14

    def test_radius_must_enclose_poles(self):
        with pytest.raises(DomainError):
            g_quadrature(0.25, 0.25, QuadratureSpec(radius=0.2, nodes=64))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(radius=-1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(nodes=8)


class TestGResolve:
    def test_matches_series_inside(self):
        assert g_resolve(0.2, 0.1) == g_series(0.2, 0.1)

    def test_shifted_up_matches_quadrature(self):
        got = g_resolve(2.3, -0.3)
        oracle = g_quadrature(2.3, -0.3, QuadratureSpec(radius=2.6, nodes=768))
        assert abs(got - oracle) <= 1e-11

    def test_shifted_down_matches_quadrature(self):
        got = g_resolve(-0.8, 0.01)
        oracle = g_quadrature(-0.8, 0.01, QuadratureSpec(radius=1.1, nodes=512))
        assert abs(got - oracle) <= 1e-12

    def test_quadrature_fallback_region(self, monkeypatch):
        # an off-axis a leaves the series disk at every shifted base point
        calls = []

        def counted(*args):
            calls.append(args)
            return g_quadrature(*args)

        monkeypatch.setattr(gammakit, "g_quadrature", counted)
        a, b = 0.3 + 1.5j, 0.2
        got = g_resolve(a, b)
        assert len(calls) == 1
        direct = (recip_gamma(a + 1 + b) - recip_gamma(a + 1)) / b
        assert abs(got - direct) <= 1e-12

    @pytest.mark.parametrize("a,b,expect", [
        (1.0, 1.0, -0.5), (2.0, -1.0, -0.5), (-2.0, 1.0, 0.0),
        (1.0, 4.0, (1.0 / 120.0 - 1.0) / 4.0), (-3.0, 4.0, 0.25)])
    def test_carry_through_gamma_poles(self, a, b, expect):
        # the carried 1/Gamma values pass through exact zeros at the poles
        assert abs(g_resolve(a, b) - expect) <= 1e-14

    @pytest.mark.parametrize("a,b", [(50.0, -0.3), (160.0, -0.95),
                                     (-2.4, 0.3), (2.45, -0.3), (7.5, 0.6)])
    def test_one_recip_gamma_call(self, monkeypatch, a, b):
        mp = pytest.importorskip("mpmath")
        calls = []

        def counted(w):
            calls.append(w)
            return recip_gamma(w)

        monkeypatch.setattr(gammakit, "recip_gamma", counted)
        got = g_resolve(a, b)
        assert len(calls) == 1
        with mp.workdps(40):
            ref = _g_mpmath(mp, a, b)
        assert abs(got - ref) <= 1e-13 * abs(ref)


def _g_mpmath(mp, a, b):
    a, b = mp.mpc(a), mp.mpc(b)
    if b == 0:
        return complex(mp.diff(mp.rgamma, a + 1))
    return complex((mp.rgamma(a + 1 + b) - mp.rgamma(a + 1)) / b)


def test_g_resolve_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = random.Random(11)
    pts = [(rng.uniform(-2.5, 2.5), rng.uniform(-1.0, 1.0)) for _ in range(150)]
    pts += [(a, b) for a in (-2.5, -2.0, -0.5, 0.0, 1.0, 2.0, 2.5)
            for b in (-1.0, -0.999, 0.0, 0.5, 0.999, 1.0)]
    # a + b/2 on a half-integer: the shift count is decided by rounding
    pts += [(k + 0.5 - b / 2, b) for k in range(-3, 3)
            for b in (-1.0, -0.4, 0.3, 1.0)]
    pts += [(complex(rng.uniform(-2.5, 2.5), rng.uniform(-0.1, 0.1)),
             complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.05, 0.05)))
            for _ in range(40)]
    # off the axis the base point stays outside the disk: quadrature
    pts += [(complex(rng.uniform(-0.8, 0.8), s * rng.uniform(1.0, 2.0)),
             rng.uniform(-0.3, 0.3)) for s in (-1, 1) for _ in range(10)]
    # off-axis a across the power route's |a| <= 2.5, |b| <= 1/2: the
    # quadrature base point a0 needs a contour radius up to about 3.2
    pts += [(cmath.rect(rng.uniform(1.5, 2.5), s * rng.uniform(0.3, 2.8)),
             rng.uniform(-0.5, 0.5)) for s in (-1, 1) for _ in range(15)]
    pts += [(-1.4 + 1.9j, 0.45), (-1.5 + 1.95j, 0.4), (-1.5 - 1.95j, -0.4)]
    with mp.workdps(40):
        for a, b in pts:
            ref = _g_mpmath(mp, a, b)
            assert abs(g_resolve(a, b) - ref) <= 1e-14 * max(1.0, abs(ref)), \
                (a, b)
