import math
import random
from fractions import Fraction

import pytest

from kummeru.convergent import u_bessel_convergent
from kummeru.numcore import DomainError, RealPolynomial
from kummeru.powerseries import kummer_m_direct
from kummeru.slater import (SlaterEval, coeff_table, slater_coeffs, slater_m,
                            slater_u)


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


def exact_table(K):
    """A_0..A_K and B_0..B_{K-1} in exact rational arithmetic, each as a map
    {(i, j): c} for the monomial c z**i h**j, h = b - 1/2."""
    def dz(p):
        return {(i - 1, j): i * c for (i, j), c in p.items() if i > 0}

    def over_z(p):
        assert all(i > 0 for i, _ in p)
        return {(i - 1, j): c for (i, j), c in p.items()}

    def times_h(p, s):
        return {(i, j + 1): s * c for (i, j), c in p.items()}

    def times_z2(p, s):
        return {(i + 2, j): s * c for (i, j), c in p.items()}

    def integral(p):
        return {(i + 1, j): c / (i + 1) for (i, j), c in p.items()}

    def scaled(p, s):
        return {key: s * c for key, c in p.items()}

    def add(*ps):
        out = {}
        for p in ps:
            for key, c in p.items():
                out[key] = out.get(key, 0) + c
        return {key: c for key, c in out.items() if c != 0}

    half = Fraction(1, 2)
    A = [{(0, 0): Fraction(1)}]
    B = []
    for _ in range(K):
        ak = A[-1]
        akp = dz(ak)
        bk = add(scaled(akp, -half),
                 integral(add(times_z2(ak, half), times_h(over_z(akp), -1))))
        anext = add(times_h(over_z(bk), 1), scaled(dz(bk), -half),
                    integral(times_z2(bk, half)))
        B.append(bk)
        # the constant K_k makes A_{k+1}(0) = 0
        A.append({(i, j): c for (i, j), c in anext.items() if i > 0})
    return A, B


def as_monomials(poly):
    """A coeff_table polynomial (Horner order) as {(i, j): c}."""
    deg = len(poly) - 1
    return {(deg - r, len(row) - 1 - q): c
            for r, row in enumerate(poly) for q, c in enumerate(row)}


class TestCoefficientTable:
    def test_against_exact_generation(self):
        K = 8
        A, B = coeff_table(K)
        eA, eB = exact_table(K)
        worst = 0.0
        for got, expect in list(zip(A[:K + 1], eA)) + list(zip(B[:K], eB)):
            got = as_monomials(got)
            for key in set(got) | set(expect):
                ec = expect.get(key, 0)
                gc = got.get(key, 0.0)
                if ec == 0:
                    assert gc == 0.0, key  # structural zeros stay exact
                else:
                    err = abs(gc - ec) / abs(ec)
                    worst = max(worst, float(err))
        assert worst <= 1e-12


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

    def test_gamma_pole_raises(self):
        # Gamma(1 + a - b) = Gamma(-1)
        with pytest.raises(DomainError, match="gamma pole"):
            slater_u(4.0, 6.0, 0.5)

    def test_gamma_below_the_double_range_raises(self):
        # Gamma(1 + a - b) = Gamma(-179.5) is 0.0 in double precision
        with pytest.raises(DomainError, match="1/Gamma overflows"):
            slater_u(200.0, 380.5, 0.5)

    def test_underflow_raises(self):
        # U(170, 0.3, 0.4) is about 1.5e-313, below the normal doubles
        with pytest.raises(DomainError, match="U underflows the double range"):
            slater_u(170.0, 0.3, 0.4)


def test_u_over_the_timed_slater_domain_against_mpmath():
    """Seeded sweep of a in [30, 140], b in [-1, 2], zsq in [10/a, 1], with
    the relative bound 64 u^{-8} of the default K = 4 pairs."""
    mp = pytest.importorskip("mpmath")
    rng = random.Random(6)
    with mp.workdps(30):
        for _ in range(200):
            a = rng.uniform(30.0, 140.0)
            b = rng.uniform(-1.0, 2.0)
            zsq = rng.uniform(10.0 / a, 1.0)
            ref = float(mp.hyperu(a, b, zsq))
            val, _ = slater_u(a, b, zsq)
            bound = 64.0 * (4.0 * a - 2.0 * b) ** -4
            assert abs(val - ref) <= bound * abs(ref), (a, b, zsq)
