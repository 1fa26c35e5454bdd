"""Cancellation-safe gamma machinery.

Central objects:

* ``recip_gamma(w)`` - the entire function 1/Gamma(w), summed from a shipped
  28-coefficient Maclaurin table inside a small disc and reduced into it by
  functional-equation steps (and, for arguments with a tall imaginary part,
  by the Legendre duplication identity, which halves the argument).
* ``G(a, b) = (1/Gamma(a+1+b) - 1/Gamma(a+1)) / b`` - the scaled difference
  of reciprocal gammas, finite as b -> 0.  Two independent routes are
  provided: a coefficient series (``g_series``) and a trapezoidal contour
  integral (``g_quadrature``), so each can serve as the other's oracle.
  ``g_resolve`` reaches every real a with |b| <= 1 by one shift of the
  first argument from the series disk.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .numcore import DomainError

# Maclaurin coefficients c_k of 1/Gamma(w) = sum_{k>=1} c_k w^k.
# c_1 = 1 exactly, c_2 = Euler's constant.  Shipped as the production table;
# generate_ck() reproduces them from the zeta recursion as a cross-check.
RECIP_GAMMA_COEFFS = (
    1.00000000000000000000,
    0.57721566490153286061,
    -0.65587807152025388108,
    -0.4200263503409523553e-1,
    0.16653861138229148950,
    -0.4219773455554433675e-1,
    -0.962197152787697356e-2,
    0.721894324666309954e-2,
    -0.116516759185906511e-2,
    -0.21524167411495097e-3,
    0.12805028238811619e-3,
    -0.2013485478078824e-4,
    -0.125049348214267e-5,
    0.113302723198170e-5,
    -0.20563384169776e-6,
    0.611609510448e-8,
    0.500200764447e-8,
    -0.118127457049e-8,
    0.10434267117e-9,
    0.778226344e-11,
    -0.369680562e-11,
    0.51003703e-12,
    -0.2058326e-13,
    -0.53481e-14,
    0.12268e-14,
    -0.11813e-15,
    0.119e-17,
    0.141e-17,
)

EULER_GAMMA = RECIP_GAMMA_COEFFS[1]

# The 28-term table leaves a ~1e-16 tail at |w| = 1.25; beyond that the
# argument is reduced rather than the series stretched.
_SERIES_RADIUS = 1.25
_SQRT_PI = math.sqrt(math.pi)


def _series(w):
    s = 0j
    for c in reversed(RECIP_GAMMA_COEFFS):
        s = s * w + c
    return s * w


def recip_gamma(w):
    """1/Gamma(w) for complex w.

    Entire: no poles, zeros at the nonpositive integers (returned exactly as
    0 there).  Inside |w| <= 1.25 the Maclaurin table is summed directly;
    otherwise the real part is walked toward 0 one unit at a time, and a
    remaining tall imaginary part is halved with the duplication identity
    1/Gamma(w) = sqrt(pi) 2^(1-w) / (Gamma(w/2) Gamma(w/2 + 1/2)).
    Domain error where 1/Gamma overflows the double range (Re w below
    about -171 off the integers) and for |Re w| >= 1024.
    """
    w0 = w = complex(w)
    if w.imag == 0.0 and w.real <= 0.0 and w.real == round(w.real):
        return 0j
    if not abs(w.real) < 1024.0:
        raise DomainError(f"recip_gamma needs |Re w| < 1024, got {w0}")
    acc = 1.0 + 0j
    while abs(w) > _SERIES_RADIUS and not -0.5 <= w.real < 0.5:
        if w.real >= 0.5:
            # 1/Gamma(w) = (1/Gamma(w-1)) / (w-1)
            acc /= (w - 1.0)
            w = w - 1.0
        else:
            # 1/Gamma(w) = w * (1/Gamma(w+1))
            acc *= w
            w = w + 1.0
    if abs(w) <= _SERIES_RADIUS:
        r = acc * _series(w)
    else:
        # |Re w| <= 1/2 but |w| > 1.25: halve the imaginary part
        r = acc * _SQRT_PI * cmath.exp((1.0 - w) * math.log(2.0)) \
            * recip_gamma(w / 2.0) * recip_gamma(w / 2.0 + 0.5)
    if not cmath.isfinite(r):
        raise DomainError(f"1/Gamma overflows the double range at {w0}")
    return r


def gamma_fn(w):
    """Gamma(w) = 1/recip_gamma(w); domain error at the poles and wherever
    that quotient is not finite, i.e. Gamma overflows the double range
    (1/Gamma subnormal or 0)."""
    w = complex(w)
    if w.imag == 0.0 and w.real <= 0.0 and w.real == round(w.real):
        raise DomainError(f"gamma pole at {w.real}")
    r = recip_gamma(w)
    g = 1.0 / r if r != 0 else math.inf
    if not cmath.isfinite(g):
        raise DomainError(f"Gamma overflows the double range at {w}")
    return g


# ---------------------------------------------------------------------------
# zeta values and the coefficient recursion (test oracle for the table)
# ---------------------------------------------------------------------------

_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)


def zeta(s: float) -> float:
    """Riemann zeta for real s >= 2 by direct summation with an
    Euler-Maclaurin tail correction; accurate to ~1e-16 relative."""
    if s < 2:
        raise DomainError("zeta helper only covers s >= 2")
    N = 32
    total = sum(k ** (-s) for k in range(1, N))
    total += 0.5 * N ** (-s)
    total += N ** (1.0 - s) / (s - 1.0)
    poch = s
    npow = N ** (-s - 1.0)
    fact = 2.0
    for j, b2j in enumerate(_BERNOULLI):
        total += b2j / fact * poch * npow
        poch *= (s + 2 * j + 1) * (s + 2 * j + 2)
        npow /= N * N
        fact *= (2 * j + 3) * (2 * j + 4)
    return total


def generate_ck(n: int) -> list:
    """Regenerate c_1..c_n from the recursion
    (k-1) c_k = gamma*c_{k-1} - zeta(2)c_{k-2} + ... + (-1)^k zeta(k-1)c_1.

    A cross-check of the shipped table, not a replacement for it: past
    k ~ 28 the alternating sum cancels badly in double precision, so a
    warning is emitted for larger n.
    """
    if n < 3:
        raise DomainError("need n >= 3")
    if n > 28:
        warnings.warn("generate_ck beyond k=28 degrades in double precision",
                      RuntimeWarning, stacklevel=2)
    c = [0.0, 1.0, EULER_GAMMA]  # 1-based storage
    for k in range(3, n + 1):
        s = EULER_GAMMA * c[k - 1]
        sign = -1.0
        for j in range(2, k):
            s += sign * zeta(j) * c[k - j]
            sign = -sign
        c.append(s / (k - 1))
    return c[1:]


# ---------------------------------------------------------------------------
# the difference function G(a, b)
# ---------------------------------------------------------------------------

def _in_series_disk(a, b) -> bool:
    return abs(a) <= 1.0 + 1e-12 and abs(a + b) <= 1.0 + 1e-12


def g_series(a, b):
    """G(a,b) = (1/Gamma(a+1+b) - 1/Gamma(a+1))/b by the coefficient series

        G(a,b) = sum_{k>=2} c_k d_k,
        d_2 = 1, d_3 = 2a+b, d_{k+2} = (2a+b) d_{k+1} - a(a+b) d_k.

    Valid for |a| <= 1 and |a+b| <= 1 (complex allowed), where the 28-term
    table keeps the absolute error below 1e-15.  The d_k seeds and
    recurrence are polynomials in b, so b = 0 needs no special case and the
    b -> 0 limit is exact.
    """
    a = complex(a)
    b = complex(b)
    if not _in_series_disk(a, b):
        raise DomainError("g_series requires |a| <= 1 and |a+b| <= 1")
    c = RECIP_GAMMA_COEFFS
    d_prev = 1.0 + 0j          # d_2
    d_cur = 2.0 * a + b        # d_3
    total = c[1] * d_prev + c[2] * d_cur
    small = 0
    for k in range(4, len(c) + 1):
        d_prev, d_cur = d_cur, (2.0 * a + b) * d_cur - a * (a + b) * d_prev
        term = c[k - 1] * d_cur
        total += term
        if abs(term) < 1e-17:
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return total


@dataclass(frozen=True)
class QuadratureSpec:
    """Contour for the trapezoidal evaluation of G: a circle of the given
    radius sampled at equidistant angles."""

    radius: float = 1.0
    nodes: int = 64

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("radius must be positive")
        if self.nodes < 16:
            raise DomainError("need at least 16 nodes")


def g_quadrature(a, b, spec: QuadratureSpec = QuadratureSpec()):
    """G(a,b) as the contour integral

        (1/2 pi) Int_{-pi}^{pi} (1/Gamma(z)) / ((z-a)(z-a-b)) d theta,
        z = r e^{i theta},

    by the trapezoidal rule, which converges geometrically here.  The circle
    must enclose both poles: radius > max(|a|, |a+b|).  b = 0 turns the two
    simple poles into one double pole and needs no special handling.
    """
    a = complex(a)
    b = complex(b)
    if spec.radius <= max(abs(a), abs(a + b)):
        raise DomainError("contour radius must exceed max(|a|, |a+b|)")
    n = spec.nodes
    total = 0j
    for j in range(n):
        z = spec.radius * cmath.exp(1j * (-math.pi + 2.0 * math.pi * j / n))
        total += recip_gamma(z) / ((z - a) * (z - a - b))
    return total / n


def g_resolve(a, b):
    """G(a,b) by one centred shift of the first argument.

    G is symmetric in its poles a and a+b, so Re b < 0 is swapped to
    G(a+b, -b).  The base point a0 = a - m with m = round(Re(a + b/2))
    then centres both poles on the origin.  G(a0, b) is summed by g_series
    inside its disk (every real a with |b| <= 1), and otherwise (an
    off-axis complex a, or |b| > 1) by a contour quadrature at a0 whose
    radius wraps both poles.  The value is carried back m units with the
    one relation

        G(a-1,b) = (a+b) G(a,b) + 1/Gamma(a+1),

    run down for m < 0, or solved for G(a+1,b) and run up for m > 0, where
    the swap keeps every divisor |a0+b+1| >= 1/2.  The 1/Gamma values it
    needs come from one recip_gamma call, carried by the pole-safe product
    1/Gamma(w-1) = (w-1)/Gamma(w).
    """
    a = complex(a)
    b = complex(b)
    if b.real < 0.0:
        a, b = a + b, -b
    m = round(a.real + b.real / 2.0)
    a0 = a - m
    if _in_series_disk(a0, b):
        g = g_series(a0, b)
    else:
        rad = max(1.25, abs(a0) + 0.35, abs(a0 + b) + 0.35)
        if rad > 3.5:
            raise DomainError("G argument too large for quadrature fallback")
        rho = max(abs(a0), abs(a0 + b)) / rad
        n = 64 if rho < 0.45 else int(40.0 / -math.log(rho)) + 32
        n = min(4096, max(64, n))
        g = g_quadrature(a0, b, QuadratureSpec(radius=rad, nodes=n))
    if m < 0:
        r = recip_gamma(a0 + 1.0)
        for _ in range(-m):
            g = (a0 + b) * g + r
            r *= a0
            a0 -= 1.0
    elif m > 0:
        # 1/Gamma(a0+k) for k = m+1 down to 2, read back in rising order
        rs = [recip_gamma(a0 + m + 1.0)]
        for k in range(m, 1, -1):
            rs.append(rs[-1] * (a0 + k))
        for r in reversed(rs):
            g = (g - r) / (a0 + b + 1.0)
            a0 += 1.0
    return g
