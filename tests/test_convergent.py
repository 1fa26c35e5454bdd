import cmath
import math
import random

import pytest

from kummeru import select_method
from kummeru.convergent import (ABCoefficients, backward_probe, eval_AB,
                                five_term_coeffs, forward_coeffs,
                                init_alpha_beta, m_bessel_convergent,
                                u_bessel_convergent)
from kummeru.gammakit import recip_gamma
from kummeru.numcore import DomainError
from kummeru.powerseries import KummerInput, eval_u, kummer_m_direct

SQRT_PI = math.sqrt(math.pi)


def unscaled(coeffs: ABCoefficients):
    al = []
    be = []
    for k in range(coeffs.n):
        a_k, b_k = coeffs.unscaled(k)
        al.append(a_k)
        be.append(b_k)
    return al, be


class TestInitValues:
    def test_alpha0_direct_gamma_oracle(self):
        a0, _, _, _ = init_alpha_beta(2.0, 0.5)
        expect = math.sqrt(2.0) * 1.0 / (0.75 * SQRT_PI)  # a^{1-b}G(2)/G(2.5)
        assert abs(a0 - expect) <= 1e-13 * expect

    def test_beta0_from_alpha0(self):
        a0, _, b0, _ = init_alpha_beta(2.0, 0.5)
        assert abs(b0 - 2.0 * (a0 - 1.0) / 0.5) <= 1e-13 * abs(b0)

    def test_b_to_zero_limit(self):
        # alpha0 -> a Gamma(a)/Gamma(a+1) = 1; first-order slope is
        # psi(a+1) - ln a (= 3/2 - gamma - ln 2 at a = 2); remainder O(b^2)
        b = 2e-3
        a0, _, _, _ = init_alpha_beta(2.0, b)
        slope = 1.5 - 0.57721566490153286061 - math.log(2.0)
        assert abs(a0 - 1.0 - b * slope) <= b * b

    @pytest.mark.parametrize("a,b,z,tol", [(8.0, 0.01, 0.3, 1e-13),
                                           (20.0, 0.002, 0.1, 2e-12)])
    def test_small_b_against_mpmath(self, a, b, z, tol):
        # alpha_0 - 1 = O(b) at every a: it must come from G, not from a
        # subtraction of two O(1) numbers
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = complex(mp.hyperu(a, b, z))
        assert abs(u_bessel_convergent(a, b, z).u - ref) <= tol * abs(ref)

    def test_alpha1_small_b_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            a, b = mp.mpf(3), mp.mpf(0.002)
            alpha0 = a ** (1 - b) * mp.gamma(a) / mp.gamma(a + 1 - b)
            ref = float((alpha0 * (b * b - b + 2 * a) - 2 * a)
                        / (2 * b * (1 - b)))
        assert abs(init_alpha_beta(3.0, 0.002)[1] - ref) <= 1e-13 * abs(ref)

    def test_excluded_b_neighborhoods(self):
        for b in (0.0, 1.0, 2.0, 5e-4, 1.0004, 1.9996):
            with pytest.raises(DomainError):
                init_alpha_beta(2.0, b)
        with pytest.raises(DomainError):
            init_alpha_beta(-1.0, 0.5)


class TestForwardCoeffs:
    def test_alpha2_defining_relation(self):
        a, b = 2.0, 0.5
        coeffs = forward_coeffs(a, b, 4)
        al, be = unscaled(coeffs)
        lhs = al[0]
        rhs = 2 * b * al[1] + 4 * 2 * (1 + b) * al[2] - 4 * 3 * be[1]
        assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("a,b", [(2.0, 0.5), (5.0, 0.25)])
    def test_five_term_residuals(self, a, b):
        coeffs = forward_coeffs(a, b, 20)
        al, be = unscaled(coeffs)
        for k in range(3, 16):
            row = five_term_coeffs(k, a, b)
            terms_p = [row.p[i] * al[k - 3 + i] for i in range(5)]
            terms_q = [row.q[i] * be[k - 3 + i] for i in range(5)]
            scale_p = max(abs(t) for t in terms_p)
            scale_q = max(abs(t) for t in terms_q)
            assert abs(sum(terms_p)) <= 1e-10 * scale_p
            assert abs(sum(terms_q)) <= 1e-10 * scale_q

    def test_coupled_residuals_from_unscaled(self):
        a, b = 2.0, 0.5
        coeffs = forward_coeffs(a, b, 14)
        al, be = unscaled(coeffs)
        for k in range(1, 12):
            r1 = al[k - 1] - (2 * b * al[k] + 4 * (k + 1) * (k + b) * al[k + 1]
                             - 4 * (2 * k + 1) * be[k])
            r2 = be[k - 1] - (2 * b * be[k] + 4 * (k + 1) * (k + 2 - b) * be[k + 1]
                             - 8 * a * (k + 1) * al[k + 1])
            assert abs(r1) <= 1e-12 * max(abs(al[k - 1]), 1e-3)
            assert abs(r2) <= 1e-12 * max(abs(be[k - 1]), 1e-3)

    def test_validation(self):
        with pytest.raises(DomainError):
            forward_coeffs(2.0, 0.5, 1)


class TestFiveTermRows:
    def test_k3_q_row_closed_form(self):
        a, b = 1.7, 0.3
        row = five_term_coeffs(3, a, b)
        assert row.q == (3.0, -10.0 * b, 8.0 * (b * b - 18.0),
                         -336.0 * (4.0 * a - b),
                         384.0 * (3.0 + b) * (5.0 - b))

    def test_q1_asymptotics(self):
        row = five_term_coeffs(10 ** 4, 2.0, 0.5)
        assert abs(row.q[4] / (16.0 * (10 ** 4) ** 5) - 1.0) <= 1e-3

    def test_characteristic_equation_degenerate_root(self):
        # 16 l^4 - 8 l^2 + 1 = (4 l^2 - 1)^2: |l| = 1/2, double
        lam = 0.5
        assert 16 * lam ** 4 - 8 * lam ** 2 + 1 == 0.0
        assert 64 * lam ** 3 - 16 * lam == 0.0

    def test_p_tracks_minus_4k_q(self):
        k, a, b = 200, 2.0, 0.5
        row = five_term_coeffs(k, a, b)
        for pi, qi in zip(row.p, row.q):
            assert abs(pi + 4.0 * k * qi) <= 0.05 * abs(pi)

    def test_row_index_guard(self):
        with pytest.raises(DomainError):
            five_term_coeffs(2, 1.0, 0.5)


class TestEvalAB:
    def test_at_origin(self):
        coeffs = forward_coeffs(2.0, 0.5, 10)
        a_sum, b_sum, _ = eval_AB(coeffs, 0.0)
        a0, _, b0, _ = init_alpha_beta(2.0, 0.5)
        assert a_sum == complex(a0)
        assert b_sum == complex(b0)

    def test_scaled_and_unscaled_storage_bit_identical(self):
        # unscale each coefficient first, then sum with identical ops
        coeffs = forward_coeffs(2.0, 0.5, 15)
        z = 0.73
        a_sum, b_sum, _ = eval_AB(coeffs, z, 15)
        al, be = unscaled(coeffs)
        zp = 1.0 + 0j
        a_ref = 0j
        b_ref = 0j
        for k in range(15):
            if k > 0:
                zp *= complex(z)
            a_ref += al[k] * zp
            b_ref += be[k] * zp
        assert a_sum == a_ref
        assert b_sum == b_ref

    def test_tail_decays_supergeometrically(self):
        coeffs = forward_coeffs(1.0, 0.4, 28)
        terms = []
        f = 1.0
        for k in range(28):
            if k > 0:
                f *= 2.0 * k
            terms.append(abs(coeffs.alpha_scaled[k] / f))  # |alpha_k| 1^k
        assert terms[25] < 1e-3 * terms[15]

    def test_budget_guard(self):
        coeffs = forward_coeffs(2.0, 0.5, 10)
        with pytest.raises(DomainError):
            eval_AB(coeffs, 0.5, 12)


class TestBesselRepresentations:
    def test_u_matches_power_series_overlap(self):
        ref = eval_u(KummerInput(a=0.3, b=0.4, z=0.6)).u
        got = u_bessel_convergent(0.3, 0.4, 0.6, n=20).u
        assert abs(got - ref) / abs(ref) <= 1e-12

    def test_u_ten_coefficients_small_z(self):
        ref = eval_u(KummerInput(a=0.3, b=0.4, z=0.2)).u
        got = u_bessel_convergent(0.3, 0.4, 0.2, n=10).u
        assert abs(got - ref) / abs(ref) <= 1e-14

    def test_m_matches_direct_sum_large_a(self):
        # validates the shared coefficients where the power series cannot go
        ref = kummer_m_direct(25.0, 0.4, 0.3) * recip_gamma(0.4)
        got = m_bessel_convergent(25.0, 0.4, 0.3, n=20)
        assert abs(got - ref) / abs(ref) <= 1e-12

    def test_m_matches_direct_sum_small_a(self):
        ref = kummer_m_direct(0.3, 0.4, 0.6) * recip_gamma(0.4)
        got = m_bessel_convergent(0.3, 0.4, 0.6, n=20)
        assert abs(got - ref) / abs(ref) <= 1e-12

    def test_m_small_z_limit(self):
        # near the origin the representation must track the true M, which
        # itself departs from 1 by (a/b) z; at z = 1e-12 the limit value
        # 1/Gamma(b) is reproduced directly
        got = m_bessel_convergent(2.0, 0.4, 1e-8, n=8)
        ref = kummer_m_direct(2.0, 0.4, 1e-8) * recip_gamma(0.4)
        assert abs(got - ref) / abs(ref) <= 1e-10
        got0 = m_bessel_convergent(2.0, 0.4, 1e-12, n=8)
        lim = recip_gamma(0.4)
        assert abs(got0 - lim) / abs(lim) <= 1e-10

    def test_m_consistency_at_a5(self):
        ref = kummer_m_direct(5.0, 0.25, 0.9) * recip_gamma(0.25)
        got = m_bessel_convergent(5.0, 0.25, 0.9, n=20)
        assert abs(got - ref) / abs(ref) <= 1e-12

    def test_forward_instability_reported_at_large_a(self):
        # at a = 50 the forward recurrence may have lost digits; record the
        # observed error without asserting double-precision quality
        ref = kummer_m_direct(50.0, 0.4, 0.2) * recip_gamma(0.4)
        got = m_bessel_convergent(50.0, 0.4, 0.2, n=20)
        err = abs(got - ref) / abs(ref)
        print(f"\nforward-recurrence M error at a=50: {err:.3e}")
        assert math.isfinite(err)

    def test_complex_z(self):
        z = 0.4 + 0.3j
        ref = eval_u(KummerInput(a=0.5, b=0.4, z=z)).u
        got = u_bessel_convergent(0.5, 0.4, z, n=20).u
        assert abs(got - ref) / abs(ref) <= 1e-12

    def test_negative_axis_rejected(self):
        with pytest.raises(DomainError):
            u_bessel_convergent(2.0, 0.4, -0.5, n=20)

    def test_underflow_raises(self):
        # U(171, 0.4, 0.05) is about 3.7e-311, below the normal doubles
        with pytest.raises(DomainError, match="U underflows the double range"):
            u_bessel_convergent(171.0, 0.4, 0.05)


class TestBackwardProbe:
    def test_seed_independence_and_mismatch(self):
        rng = random.Random(41)
        seeds = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)]
        rep = backward_probe(2.0, 0.5, 200, seeds)
        assert rep.seed_spread <= 1e-8
        assert rep.matches_initial_values is False
        # the recovered ratio differs grossly from the wanted solution
        a0, a1, b0, b1 = init_alpha_beta(2.0, 0.5)
        assert abs(rep.ratio_beta - b1 / b0) > 1e-3 * abs(b1 / b0)

    def test_start_point_insensitivity(self):
        seeds = [(1.0, 0.3)]
        r60 = backward_probe(2.0, 0.5, 60, seeds).ratio_beta
        r200 = backward_probe(2.0, 0.5, 200, seeds).ratio_beta
        assert abs(r60 - r200) <= 1e-6 * abs(r200)

    def test_single_seed_spread_zero(self):
        rep = backward_probe(2.0, 0.5, 120, [(0.7, -0.2)])
        assert rep.seed_spread == 0.0
        assert rep.seed_count == 1

    def test_true_tail_roundtrip_short_range(self):
        # seeding with the true forward values at small k_start recovers the
        # true ratio before minimal-solution contamination dominates
        coeffs = forward_coeffs(2.0, 0.5, 17)
        al, be = unscaled(coeffs)
        rep = backward_probe(2.0, 0.5, 15,
                             [(be[15], be[14], be[13], be[12])])
        true_ratio = be[1] / be[0]
        assert abs(rep.ratio_beta - true_ratio) <= 1e-6 * abs(true_ratio)

    def test_validation(self):
        with pytest.raises(DomainError):
            backward_probe(2.0, 0.5, 3, [(1.0, 0.5)])
        with pytest.raises(DomainError):
            backward_probe(2.0, 0.5, 100, [])
        with pytest.raises(DomainError):
            backward_probe(2.0, 0.5, 100, [(1.0, 2.0, 3.0)])


def test_u_over_the_convergent_domain_against_mpmath():
    """Seeded sweep of the points select_method sends to the convergent
    route.  The bound is the initial values' rounding loss,
    64 e^{4 sqrt|az|} eps / |b(1-b)(2-b)|, plus 64 times the truncation of
    the 20 pairs, (|z|/2)^20/20!, which is the larger one where az is small
    and |z| near 4."""
    mp = pytest.importorskip("mpmath")
    rng = random.Random(5)
    pts = []
    while len(pts) < 200:
        a = math.exp(rng.uniform(math.log(0.05), math.log(160.0)))
        b = rng.uniform(0.05, 0.95)
        z = cmath.rect(rng.uniform(0.0, 10.0 / a),
                       rng.uniform(-math.pi, math.pi))
        try:
            if select_method(a, b, z) == "convergent":
                pts.append((a, b, z))
        except DomainError:
            pass
    eps = 2.0 ** -52
    with mp.workdps(40):
        for a, b, z in pts:
            ref = complex(mp.hyperu(a, b, z))
            err = abs(u_bessel_convergent(a, b, z).u - ref) / abs(ref)
            bound = 64.0 * (math.exp(4.0 * math.sqrt(abs(a * z))) * eps
                            / abs(b * (1.0 - b) * (2.0 - b))
                            + (abs(z) / 2.0) ** 20 / math.factorial(20))
            assert err <= bound, (a, b, z, err, bound)
