import math
import random

import pytest

from kummeru.gammakit import EULER_GAMMA, gamma_fn
from kummeru.numcore import DomainError
from kummeru.powerseries import (KummerInput, eval_u, kummer_m_direct,
                                 raise_b, series_step_coeffs, shift_a_down,
                                 sinc_pi_ratio, w0)

SQRT_PI = math.sqrt(math.pi)

TABLE2_A = 0.2
TABLE2_Z = (complex(-0.5, -0.1), complex(1.0, 1.0))


def _u(a, b, z, **kw):
    return eval_u(KummerInput(a=a, b=b, z=z, **kw))


def _residual(a, b, z):
    """Relative residual of U(a-1,b,z) = (a-b+z) U - z U'."""
    out = _u(a, b, z)
    down = _u(a - 1.0, b, z)
    lhs = shift_a_down(a, b, z, out.u, out.u_prime)
    return abs(lhs - down.u) / abs(down.u)


class TestStepCoeffs:
    def test_direct_substitution_at_origin(self):
        am, bm, cm, dm = series_step_coeffs(0, 0.0, 0.0)
        assert (am, bm, cm, dm) == (2.0, 2.0, 2.0, -1.0)

    def test_dm_is_divided_difference(self):
        a, b = 0.2, 0.3
        for m in range(11):
            am, bm, _, dm = series_step_coeffs(m, a, b)
            assert abs((am - bm) / b - dm) <= 1e-14 * max(abs(dm), 1.0)

    def test_bm_is_gamma_product_ratio(self):
        rng = random.Random(17)
        for _ in range(10):
            a = rng.uniform(-0.5, 0.5)
            b = rng.uniform(-0.5, 0.5)
            for m in range(11):
                _, bm, _, _ = series_step_coeffs(m, a, b)
                ratio = (gamma_fn(a - b + 2 + m) * gamma_fn(b + 2 + m)
                         * gamma_fn(m + 3)) / (gamma_fn(a - b + 1 + m)
                                               * gamma_fn(b + 1 + m)
                                               * gamma_fn(m + 2))
                assert abs(bm - ratio) <= 1e-13 * abs(ratio)


class TestW0:
    def test_b_zero_origin(self):
        # b->0 limit of (Gamma(a+1)/Gamma(b+1) - z^-b Gamma(a-b+1)/Gamma(2-b))/b
        # at a = 0, z = 1 is (1/Gamma(1+b) - 1/(1-b))/b -> gamma - 1
        got = w0(0.0, 0.0, 1.0)
        assert abs(got - (EULER_GAMMA - 1.0)) <= 1e-13

    def test_large_b_against_direct_gammas(self):
        # safe direct evaluation at b = 1/2
        expect = (1.0 / gamma_fn(1.5) - gamma_fn(0.5) / gamma_fn(1.5)) / 0.5
        assert abs(w0(0.0, 0.5, 1.0) - expect) <= 1e-13 * abs(expect)

    def test_continuity_through_b_zero(self):
        a, z = 0.2, 1 + 1j
        assert abs(w0(a, 1e-10, z) - w0(a, -1e-10, z)) <= 1e-9


class TestUSmallZ:
    def test_a_zero_exact(self):
        out = _u(0.0, 0.3, 0.5)
        assert out.u == 1.0 + 0j
        assert out.u_prime == 0j

    def test_table2_point_residual_and_terms(self):
        out = _u(TABLE2_A, 1e-2, TABLE2_Z[0])
        assert 10 <= out.terms_used <= 30
        assert _residual(TABLE2_A, 1e-2, TABLE2_Z[0]) <= 5e-14

    def test_b_continuity_through_limit(self):
        u8 = _u(0.2, 1e-8, 1 + 1j).u
        u10 = _u(0.2, 1e-10, 1 + 1j).u
        assert abs(u8 - u10) / abs(u8) <= 1e-8

    def test_term_counts_at_reference_points(self):
        for z, expected_range in ((TABLE2_Z[0], (10, 30)), (TABLE2_Z[1], (10, 30))):
            out = _u(TABLE2_A, 1e-4, z, tol=1e-16)
            assert expected_range[0] <= out.terms_used <= expected_range[1]

    def test_truncation_flag(self):
        out = _u(0.2, 0.3, 1 + 1j, max_terms=3)
        assert "truncated" in out.flags
        assert out.est_abs_error > 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            KummerInput(a=0.2, b=0.3, z=0.0)
        with pytest.raises(DomainError):
            _u(2.8, 0.3, 0.5)  # |a| beyond the shiftable range
        with pytest.raises(DomainError):
            _u(0.2, -1.2, 0.5)  # b below the raisable range
        with pytest.raises(DomainError):
            _u(-2.0, 0.3, 0.5)  # negative-integer a

    def test_shifted_a_flagged(self):
        assert "shifted_a" in _u(1.7, 0.3, 0.5).flags
        assert "shifted_a" not in _u(0.4, 0.3, 0.5).flags

    def test_negative_axis_flagged_not_rejected(self):
        out = _u(0.2, 0.1, -0.5)
        assert "negative_axis_z" in out.flags
        assert out.u.imag != 0.0  # principal branch of log z on the cut
        assert "negative_axis_z" not in _u(0.2, 0.1, -0.5 - 0.1j).flags

    def test_real_inputs_give_real_results(self):
        # (-2.2, 0.4, 0.5) used to carry a spurious u.imag of -2.5e-16
        for a, b, z in ((-2.2, 0.4, 0.5), (0.3, 1.4, 0.5), (1.7, 1e-8, 0.9)):
            out = _u(a, b, z)
            assert out.u.imag == 0.0 and out.u_prime.imag == 0.0

    @pytest.mark.parametrize("a,b", [(-1.4 + 1.9j, 0.45), (-1.5 + 1.95j, 0.4)])
    def test_off_axis_complex_a(self, a, b):
        # G(a, b) used to raise "G argument too large for quadrature fallback"
        mpmath = pytest.importorskip("mpmath")
        ref = complex(mpmath.hyperu(a, b, 0.5))
        assert abs(_u(a, b, 0.5).u - ref) <= 1e-12 * abs(ref)


class TestUPrime:
    def test_a_zero(self):
        assert eval_u(KummerInput(a=0.0, b=0.25, z=0.7)).u_prime == 0j

    def test_finite_difference(self):
        a, b, z, h = 0.2, 0.3, 0.8, 1e-5
        up = _u(a, b, z).u_prime
        fd = (_u(a, b, z + h).u - _u(a, b, z - h).u) / (2 * h)
        assert abs(up - fd) / abs(up) <= 1e-6

    def test_finite_difference_random_points(self):
        rng = random.Random(23)
        h = 1e-5
        for _ in range(10):
            a = rng.uniform(-0.45, 0.45)
            b = rng.uniform(-0.45, 0.45)
            z = rng.uniform(0.2, 0.9)
            up = _u(a, b, z).u_prime
            fd = (_u(a, b, z + h).u - _u(a, b, z - h).u) / (2 * h)
            assert abs(up - fd) / max(abs(up), 1e-10) <= 1e-6

    def test_table2_residual_b_1em4(self):
        assert _residual(TABLE2_A, 1e-4, TABLE2_Z[1]) <= 5e-14


class TestRaiseB:
    def test_a_zero_fixed_point(self):
        steps = raise_b(0.0, 0.3, 0.5, 1.0 + 0j, 0j, 3)
        for u, up in steps:
            assert u == 1.0 + 0j
            assert up == 0j

    def test_path_consistency_across_half(self):
        # raise from b = -1/2 must land on the direct evaluation at b = +1/2
        a, z = 0.2, 0.7
        lo = _u(a, -0.5, z)
        (u1, up1), = raise_b(a, -0.5, z, lo.u, lo.u_prime, 1)
        hi = _u(a, 0.5, z)
        assert abs(u1 - hi.u) / abs(hi.u) <= 1e-12
        assert abs(up1 - hi.u_prime) / abs(hi.u_prime) <= 1e-12

    def test_two_sided_limit_path(self):
        # raising from b = +eps and b = -eps brackets the integer-b value;
        # the two results differ by 2 eps dU/db, so the tolerance scales
        # with eps
        a, z = 0.2, 0.7
        for eps, tol in ((1e-10, 1e-10), (1e-8, 1e-8)):
            p = _u(a, eps, z)
            m = _u(a, -eps, z)
            (up_, upp), = raise_b(a, eps, z, p.u, p.u_prime, 1)
            (um_, ump), = raise_b(a, -eps, z, m.u, m.u_prime, 1)
            assert abs(up_ - um_) <= tol
            assert abs(upp - ump) <= tol

    def test_integer_b_routing_matches_manual_raise(self):
        a, z = 0.3, 0.6
        base = _u(a, 0.0, z)
        (u1, up1), = raise_b(a, 0.0, z, base.u, base.u_prime, 1)
        routed = _u(a, 1.0, z)
        assert "near_integer_b" in routed.flags
        assert abs(routed.u - u1) <= 1e-14 * abs(u1)
        assert abs(routed.u_prime - up1) <= 1e-14 * abs(up1)

    def test_validation(self):
        with pytest.raises(DomainError):
            raise_b(0.2, 0.3, 0.0, 1.0, 0.0, 1)
        with pytest.raises(DomainError):
            raise_b(0.2, 0.3, 0.5, 1.0, 0.0, 0)


class TestShiftADown:
    def test_a_zero_polynomial_case(self):
        # U(-1,b,z) = z - b + a at a = 0
        b, z = 0.3, 0.6 + 0.1j
        assert shift_a_down(0.0, b, z, 1.0 + 0j, 0j) == z - b

    def test_self_consistency_at_a_one(self):
        b, z = 0.3, 0.5
        out = _u(1.0, b, z)
        lhs = shift_a_down(1.0, b, z, out.u, out.u_prime)
        assert abs(lhs - 1.0) <= 1e-13  # U(0,b,z) = 1

    def test_table2_reproduction_row(self):
        assert _residual(TABLE2_A, 1e-2, TABLE2_Z[0]) <= 5e-14


class TestKummerMDirect:
    def test_exponential_case(self):
        got = kummer_m_direct(0.7, 0.7, 1.0)
        assert abs(got - math.e) <= 1e-14 * math.e

    def test_a_zero(self):
        assert kummer_m_direct(0.0, 0.4, 0.9) == 1.0 + 0j

    def test_one_two_identity(self):
        got = kummer_m_direct(1.0, 2.0, 1.0)
        assert abs(got - (math.e - 1.0)) <= 1e-14 * (math.e - 1.0)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            kummer_m_direct(0.5, -1.0, 0.3)


class TestProperties:
    def test_b_to_zero_uniform_stability(self):
        for k in (1, 3, 5):
            b = 10.0 ** (-2 * k)
            for z in TABLE2_Z:
                assert _residual(TABLE2_A, b, z) <= 5e-14

    def test_connection_formula_consistency(self):
        # away from the singular region, compare against the raw two-term
        # connection formula assembled from the direct 1F1 sum
        a, b, z = 0.3, 0.4, 0.6
        u = _u(a, b, z).u
        raw = (gamma_fn(1 - b) / gamma_fn(a - b + 1) * kummer_m_direct(a, b, z)
               + gamma_fn(b - 1) / gamma_fn(a)
               * z ** (1 - b) * kummer_m_direct(a - b + 1, 2 - b, z))
        assert abs(u - raw) / abs(raw) <= 1e-12

    def test_vm_positivity(self):
        for b in (-0.5, -0.25, 0.0, 0.25, 0.5):
            v = (1.0 - b) * sinc_pi_ratio(b).real
            assert v > 0
            for m in range(51):
                v *= (m + 2.0) * (b + m + 1.0) * (2.0 - b + m)
                assert v > 0

    def test_sinc_factor_series_matches_direct(self):
        for b in (1e-3, 5e-3, 0.05, 0.09):
            direct = math.pi * b / math.sin(math.pi * b)
            assert abs(sinc_pi_ratio(b).real - direct) <= 1e-14 * direct
