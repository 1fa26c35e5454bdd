import math

import pytest

from kummeru.convergent import u_bessel_convergent
from kummeru.numcore import DomainError, RealPolynomial
from kummeru.powerseries import kummer_m_direct
from kummeru.slater import (SlaterEval, slater_coeffs, slater_m, slater_u)


def closed_forms(b):
    """The first six coefficient polynomials in closed form."""
    return {
        ("A", 0): RealPolynomial.of([1.0]),
        ("B", 0): RealPolynomial.of([0, 0, 0, 1 / 6]),
        ("A", 1): RealPolynomial.of([0, 0, (b - 2) / 6, 0, 0, 0, 1 / 72]),
        ("B", 1): RealPolynomial.of([0, -b * (b - 2) / 3, 0, 0, 0, -1 / 15,
                                     0, 0, 0, 1 / 1296]),
        ("A", 2): RealPolynomial.of([0, 0, 0, 0, -(5 * b - 12) * (b + 2) / 120,
                                     0, 0, 0, (5 * b - 52) / 6480,
                                     0, 0, 0, 1 / 31104]),
        ("B", 2): RealPolynomial.of([0, 0, 0,
                                     (5 * b - 12) * (b + 2) * (b + 1) / 90,
                                     0, 0, 0,
                                     -(175 * b ** 2 - 350 * b - 1896) / 45360,
                                     0, 0, 0, -7 / 12960,
                                     0, 0, 0, 1 / 933120]),
    }


class TestCoefficientGeneration:
    @pytest.mark.parametrize("b", [0.1, 0.3, 0.7])
    def test_matches_closed_forms(self, b):
        cs = slater_coeffs(b, 3)
        forms = closed_forms(b)
        for (which, k), expect in forms.items():
            got = cs.A[k] if which == "A" else cs.B[k]
            assert got.degree == expect.degree  # same monomial support
            for i, (gc, ec) in enumerate(zip(got.coeffs, expect.coeffs)):
                if ec == 0.0:
                    assert gc == 0.0, (which, k, i)
                else:
                    assert abs(gc - ec) <= 1e-14 * abs(ec), (which, k, i)

    def test_a_k_vanishes_at_origin(self):
        cs = slater_coeffs(0.4, 5)
        for k in range(1, 6):
            assert cs.A[k](0.0) == 0.0

    def test_b2_leading_coefficient_value(self):
        b = 0.3
        cs = slater_coeffs(b, 3)
        expect = (5 * b - 12) * (b + 2) * (b + 1) / 90.0
        assert abs(cs.B[2].coeffs[3] - expect) <= 1e-14 * abs(expect)

    def test_validation(self):
        with pytest.raises(DomainError):
            slater_coeffs(0.3, 0)


class TestSlaterEval:
    def test_large_parameter(self):
        pt = SlaterEval(a=50.0, b=0.5, z_arg=0.5)
        assert pt.u == math.sqrt(199.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            SlaterEval(a=0.1, b=0.5, z_arg=0.5)
        with pytest.raises(DomainError):
            SlaterEval(a=50.0, b=0.5, z_arg=0.0)


class TestSlaterM:
    def test_against_direct_sum(self):
        # truncation after K = 3 pairs leaves ~|A_3(z)|/u^6 ~ 2e-8 here
        got = slater_m(50.0, 0.3, 0.25, K=3)
        ref = kummer_m_direct(50.0, 0.3, 0.25).real
        assert abs(got - ref) / abs(ref) <= 5e-8

    def test_order_scaling_50_to_200(self):
        # error shrinks by (u_200/u_50)^{2K} ~ 64 for K = 3; the looser
        # (200/50)^2 = 16 yardstick must hold within a factor 5
        e = {}
        for a in (50.0, 200.0):
            ref = kummer_m_direct(a, 0.3, 0.25).real
            e[a] = abs(slater_m(a, 0.3, 0.25, K=3) - ref) / abs(ref)
        shrink = e[50.0] / e[200.0]
        assert 16.0 / 5.0 <= shrink <= 16.0 * 5.0

    def test_small_z_limit_consistency(self):
        # for zsq -> 0 the leading Bessel behaviour reproduces M -> 1
        got = slater_m(50.0, 0.3, 1e-6, K=3)
        ref = kummer_m_direct(50.0, 0.3, 1e-6).real
        assert abs(got - ref) <= 1e-8


class TestSlaterU:
    def test_monotone_improvement_vs_convergent(self):
        a, b, zsq = 50.0, 0.3, 0.25
        ref = u_bessel_convergent(a, b, zsq, n=30).u.real
        errs = []
        for K in (1, 2, 3):
            val, _ = slater_u(a, b, zsq, K=K)
            errs.append(abs(val - ref) / abs(ref))
        assert errs[0] > errs[1] > errs[2]

    def test_truncation_ratio_matches_order(self):
        # self-convergence oracle: K = 8 is far below the K = 3, 4 errors
        a, b, zsq = 100.0, 0.4, 0.2
        ref, _ = slater_u(a, b, zsq, K=8)
        e3 = abs(slater_u(a, b, zsq, K=3)[0] - ref) / abs(ref)
        e4 = abs(slater_u(a, b, zsq, K=4)[0] - ref) / abs(ref)
        u2 = 4.0 * a - 2.0 * b
        assert u2 / 5.0 <= e3 / e4 <= u2 * 5.0

    def test_error_estimate_brackets_truncation(self):
        a, b, zsq = 100.0, 0.4, 0.2
        ref, _ = slater_u(a, b, zsq, K=8)
        val, est = slater_u(a, b, zsq, K=3)
        assert abs(val - ref) <= 10.0 * est

    def test_validation(self):
        with pytest.raises(DomainError):
            slater_u(0.1, 0.5, 0.25)

    def test_gamma_overflow_raises(self):
        # Gamma(1 + a - b) = Gamma(172.7) overflows; the value was (0.0, 0.0)
        with pytest.raises(DomainError, match="overflows the double range"):
            slater_u(172.0, 0.3, 0.4)
