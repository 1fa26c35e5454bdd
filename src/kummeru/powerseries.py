"""Power-series evaluation of U(a,b,z) and U'(a,b,z) for small |z|,
uniformly stable as b -> 0.

The connection formula writes U as a combination of two 1F1 series whose
individual terms blow up like 1/b as b -> 0 even though U itself stays
finite.  Expanding both series together and pairing terms gives

    U(a,b,z) = Gamma(1-b)/Gamma(a-b+1)
               + (pi b z / (sin(pi b) Gamma(a) Gamma(a-b+1)))
                 * sum_m w_m z^m / m!,
    U'(a,b,z) = (pi b / (sin(pi b) Gamma(a) Gamma(a-b+1)))
                 * sum_m ((m+1) w_m + B_m/v_m) z^m / m!,

with w_m = u_m / v_m and the b-stable recursions

    u_{m+1} = a_m u_m + d_m B_m,     B_{m+1} = b_m B_m,
    v_{m+1} = (m+2)(b+m+1)(2-b+m) v_m,

whose coefficients a_m, b_m, c_m, d_m are polynomials in m, a, b (see
series_step_coeffs).  The only place a 1/b difference ever appears is the
seed w_0, which is evaluated through the G function of gammakit so that no
subtraction of two O(1/b) quantities occurs.

Both sums are accumulated in the same loop; the removable singularity of
pi*b/sin(pi*b) at b = 0 is handled by a series branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .numcore import ConvergenceError, DomainError, EvalOutcome, phi1
from .gammakit import g_resolve, g_series, gamma_fn, recip_gamma

_A_SHIFT_LIMIT = 2  # units by which |a| may exceed 1/2


@dataclass
class KummerInput:
    """Evaluation request for the small-|z| series."""

    a: complex
    b: complex
    z: complex
    max_terms: int = 200
    tol: float = 1e-16

    def __post_init__(self):
        self.a = complex(self.a)
        self.b = complex(self.b)
        self.z = complex(self.z)
        if self.z == 0:
            raise DomainError("z must be nonzero")
        # quality domain is |z| <= 1 on the positive axis; complex reference
        # points reach |z| = sqrt(2), so the hard guard sits at 2
        if abs(self.z) > 2.0:
            raise DomainError("small-z series requires |z| <= 2")
        if self.max_terms < 1:
            raise DomainError("max_terms must be positive")
        if not (0.0 < self.tol <= 1e-6):
            raise DomainError("tol must lie in (0, 1e-6]")


def sinc_pi_ratio(b):
    """pi*b / sin(pi*b) through a series near the removable singularity."""
    b = complex(b)
    x = math.pi * b
    if abs(x) < 0.1:
        s = x * x
        # sin(x)/x = 1 - s/6 (1 - s/20 (1 - s/42 (1 - s/72)))
        return 1.0 / (1.0 - s / 6.0 * (1.0 - s / 20.0 * (1.0 - s / 42.0 * (1.0 - s / 72.0))))
    return x / cmath.sin(x)


def series_step_coeffs(m: int, a, b):
    """The recursion coefficients (a_m, b_m, c_m, d_m).

    a_m and b_m are the term ratios A_{m+1}/A_m and B_{m+1}/B_m of the two
    gamma products in the expansion, c_m their common b-free part, and
    d_m = (a_m - b_m)/b carried out exactly so the division by b never
    happens numerically.
    """
    a = complex(a)
    b = complex(b)
    cm = (m + 1.0) * (m + 2.0) * (m + a + 1.0)
    am = cm - (m * m + (a + 2.0) * m + a + 1.0) * b
    bm = cm + (m + 2.0) * (a - b) * b
    dm = -(m * m + 2.0 * m * (a + 1.0) + 3.0 * a + 1.0) + (m + 2.0) * b
    return am, bm, cm, dm


def w0(a, b, z):
    """Seed coefficient of the paired series, stable down to b = 0.

    Evaluates the G-based rearrangement of
        b w_0 = Gamma(a+1)/Gamma(b+1) - z^{-b} Gamma(a-b+1)/Gamma(2-b)
    in which every 1/b has been absorbed into G values and into
    (z^{-b}-1)/b = ln z * (e^{-b ln z} - 1)/(b ln z).
    """
    a = complex(a)
    b = complex(b)
    z = complex(z)
    if z == 0:
        raise DomainError("z must be nonzero")
    L = cmath.log(z)
    ez = -L * phi1(-b * L)  # (z^{-b} - 1)/b, exact limit -ln z at b = 0
    ga1 = gamma_fn(a + 1.0)
    g_amb = g_resolve(a, -b)
    g0p = g_series(0.0, b)
    g0m = g_series(0.0, -b)
    denom = (b - 1.0) * (1.0 - b * ga1 * g_amb)
    if abs(denom) < 1e-140:
        raise DomainError("w0 denominator vanishes (gamma pole at a-b+1)")
    bracket = (ga1 * (1.0 - b) * (1.0 + b * g0p) * g_amb
               + 1.0 + (b - 1.0) * g0p - g0m
               + ez * (1.0 - b * g0m))
    return ga1 * bracket / denom


def _route_b(b):
    """Split b into (base, raises): base in [-1/2, 1/2], raises >= 0 integer."""
    if b.imag == 0.0:
        br = b.real
        if abs(br) <= 0.5:
            return b, 0
        n = math.floor(br + 0.5)
        if n >= 1 and abs(br - n) <= 0.5:
            return complex(br - n, 0.0), n
        raise DomainError("b out of range: need |b| <= 1/2 or b within 1/2 "
                          "of a positive integer")
    if abs(b) <= 0.5:
        return b, 0
    raise DomainError("complex b requires |b| <= 1/2")


def _eval_series(a, b, z, tol, max_terms):
    """One pass of the paired series; returns (U, U', terms, est, flags)."""
    flags = set()
    if a.imag == 0.0 and a.real <= -1.0 and a.real == round(a.real):
        # the gamma products of the representation degenerate there
        raise DomainError("a at a negative integer is outside the "
                          "series representation")
    if abs(a) > 0.5 + _A_SHIFT_LIMIT + 1e-12:
        raise DomainError("|a| exceeds the shiftable range (<= 2.5)")
    if abs(a) > 0.5:
        flags.add("shifted_a")  # w0's G value is reached through shifts
    if z.imag == 0.0 and z.real < 0.0:
        flags.add("negative_axis_z")  # principal branch of log z used on the cut

    rg_a = recip_gamma(a)
    rg_ab1 = recip_gamma(a - b + 1.0)
    rg_1mb = recip_gamma(1.0 - b)
    if rg_1mb == 0:
        raise DomainError("1 - b at a gamma pole")
    first = rg_ab1 / rg_1mb  # Gamma(1-b)/Gamma(a-b+1), exactly 1 at a = 0
    if rg_a == 0:  # a = 0: the series prefactor 1/Gamma(0) vanishes
        return first, 0j, 1, 0.0, flags
    if rg_ab1 == 0:
        raise DomainError("a - b + 1 at a gamma pole (domain corner)")
    pref = sinc_pi_ratio(b) * rg_a * rg_ab1

    seed = w0(a, b, z)
    v = (1.0 - b) * sinc_pi_ratio(b)  # v_0 = Gamma(b+1) Gamma(2-b)
    u = v * seed                      # u_0
    B = cmath.exp(-b * cmath.log(z)) * gamma_fn(a - b + 1.0) * gamma_fn(b + 1.0)
    zp = 1.0 + 0j                     # z^m / m!
    sum_u = 0j
    sum_ud = 0j
    m = 0
    while True:
        wm = u / v
        t_u = wm * zp
        t_ud = ((m + 1.0) * wm + B / v) * zp
        if m >= max_terms:
            flags.add("truncated")
            est = max(abs(t_u), abs(t_ud)) * abs(pref)
            break
        sum_u += t_u
        sum_ud += t_ud
        if abs(t_u) < tol and abs(t_ud) < tol:
            m += 1
            est = tol * abs(pref)
            break
        am, bm, _, dm = series_step_coeffs(m, a, b)
        u = am * u + dm * B
        B = bm * B
        v = (m + 2.0) * (b + m + 1.0) * (2.0 - b + m) * v
        if abs(v) > 1e250:  # common rescale leaves w_m and B_m/v_m intact
            u *= 1e-250
            B *= 1e-250
            v *= 1e-250
        zp *= z / (m + 1.0)
        m += 1
    return first + pref * z * sum_u, pref * sum_ud, m, est, flags


def eval_u(inp: KummerInput) -> EvalOutcome:
    """U(a,b,z) and U'(a,b,z) by the paired small-|z| series.

    b may be arbitrarily small or exactly 0.  b within 1/2 of a positive
    integer is reached by evaluating at the fractional base value and
    raising with the b+1 recurrence (stable for the intended domain).
    a may exceed [-1/2, 1/2] by up to two units (the w0 machinery shifts
    its G value correspondingly).  For real a, b and real z > 0 both
    results have an exactly zero imaginary part.
    """
    base_b, raises = _route_b(inp.b)
    if raises and abs(base_b) < 1e-3:
        near = True  # b within 1e-3 of a nonzero integer
    else:
        near = False
    u, ud, terms, est, flags = _eval_series(inp.a, base_b, inp.z,
                                            inp.tol, inp.max_terms)
    if near:
        flags.add("near_integer_b")
    if raises:
        u, ud = raise_b(inp.a, base_b, inp.z, u, ud, raises)[-1]
    if (inp.a.imag == 0.0 and inp.b.imag == 0.0 and inp.z.imag == 0.0
            and inp.z.real > 0.0):
        # U is real there; drop the rounding residue of complex arithmetic
        u, ud = complex(u.real), complex(ud.real)
    return EvalOutcome(u=u, u_prime=ud, terms_used=terms, est_abs_error=est,
                       method="power", flags=flags)


def raise_b(a, b, z, u, uprime, steps: int):
    """Iterate the b+1 relations

        U(a,b+1,z)    = U(a,b,z) - U'(a,b,z),
        z U'(a,b+1,z) = b U'(a,b,z) - a U(a,b,z),

    returning each intermediate (U, U') pair.  For a, b, z > 0 the
    recursion is stable (U' < 0 there)."""
    a = complex(a)
    b = complex(b)
    z = complex(z)
    if z == 0:
        raise DomainError("z must be nonzero")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    out = []
    for j in range(steps):
        u, uprime = u - uprime, ((b + j) * uprime - a * u) / z
        out.append((u, uprime))
    return out


def shift_a_down(a, b, z, u, uprime):
    """U(a-1,b,z) = (a-b+z) U(a,b,z) - z U'(a,b,z)."""
    return (complex(a) - complex(b) + complex(z)) * u - complex(z) * uprime


def kummer_m_direct(a, b, z, tol: float = 1e-16):
    """Direct Taylor sum of M(a;b;z) = sum (a)_k / ((b)_k k!) z^k.

    The plain oracle route: no stabilisation, valid for b away from
    nonpositive integers and moderate |z|.
    """
    a = complex(a)
    b = complex(b)
    z = complex(z)
    if b.imag == 0.0 and b.real <= 0.0 and b.real == round(b.real):
        raise DomainError("M undefined at nonpositive integer b")
    if abs(z) > 20.0:
        raise DomainError("direct M sum restricted to |z| <= 20")
    term = 1.0 + 0j
    total = term
    for k in range(0, 10000):
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        if abs(term) < tol * abs(total):
            return total
    raise ConvergenceError("M series did not converge")
