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
* shift relations moving the first argument of G by one or two units, and
  the scaled gamma-ratio difference ``gamma_eps``.

All functions are pure and thread-safe; the quadrature node cache is
immutable once built.
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
    """
    w = complex(w)
    if w.imag == 0.0 and w.real <= 0.0 and w.real == round(w.real):
        return 0j
    acc = 1.0 + 0j
    for _ in range(1024):
        if abs(w) <= _SERIES_RADIUS:
            return acc * _series(w)
        if w.real >= 0.5:
            # 1/Gamma(w) = (1/Gamma(w-1)) / (w-1)
            acc /= (w - 1.0)
            w = w - 1.0
        elif w.real < -0.5:
            # 1/Gamma(w) = w * (1/Gamma(w+1))
            acc *= w
            w = w + 1.0
        else:
            # |Re w| <= 1/2 but |w| > 1.25: halve the imaginary part
            return acc * _SQRT_PI * cmath.exp((1.0 - w) * math.log(2.0)) \
                * recip_gamma(w / 2.0) * recip_gamma(w / 2.0 + 0.5)
    raise DomainError("recip_gamma argument reduction did not terminate")


def gamma_fn(w):
    """Gamma(w) = 1/recip_gamma(w); domain error at the poles and where
    1/Gamma underflows to 0, i.e. Gamma overflows the double range."""
    w = complex(w)
    if w.imag == 0.0 and w.real <= 0.0 and w.real == round(w.real):
        raise DomainError(f"gamma pole at {w.real}")
    r = recip_gamma(w)
    if r == 0:
        raise DomainError(f"Gamma overflows the double range at {w}")
    return 1.0 / r


# ---------------------------------------------------------------------------
# zeta values and the coefficient recursion (test oracle for the table)
# ---------------------------------------------------------------------------

_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)


def zeta(s: float, n_direct: int = 32) -> float:
    """Riemann zeta for real s >= 2 by direct summation with an
    Euler-Maclaurin tail correction; accurate to ~1e-16 relative."""
    if s < 2:
        raise DomainError("zeta helper only covers s >= 2")
    N = n_direct
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


def generate_ck(n: int, zeta_values=None) -> list:
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
    if zeta_values is None:
        zeta_values = {k: zeta(k) for k in range(2, n)}
    c = [0.0, 1.0, EULER_GAMMA]  # 1-based storage
    for k in range(3, n + 1):
        s = EULER_GAMMA * c[k - 1]
        sign = -1.0
        for j in range(2, k):
            s += sign * zeta_values[j] * c[k - j]
            sign = -sign
        c.append(s / (k - 1))
    return c[1:]


# ---------------------------------------------------------------------------
# the difference function G(a, b)
# ---------------------------------------------------------------------------

def g_series(a, b):
    """G(a,b) = (1/Gamma(a+1+b) - 1/Gamma(a+1))/b by the coefficient series

        G(a,b) = sum_{k>=2} c_k d_k,
        d_2 = 1, d_3 = 2a+b, d_{k+2} = (2a+b) d_{k+1} - a(a+b) d_k.

    Valid for |a| <= 1/2 and |a+b| <= 1/2 (complex allowed).  The d_k seeds
    and recurrence are polynomials in b, so b = 0 needs no special case and
    the b -> 0 limit is exact.
    """
    a = complex(a)
    b = complex(b)
    if abs(a) > 0.5 + 1e-12 or abs(a + b) > 0.5 + 1e-12:
        raise DomainError("g_series requires |a| <= 1/2 and |a+b| <= 1/2")
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
    radius sampled at equidistant angles.  Node values of 1/Gamma are
    precomputed once per spec."""

    radius: float = 1.0
    nodes: int = 64

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("radius must be positive")
        if self.nodes < 16:
            raise DomainError("need at least 16 nodes")


_NODE_CACHE: dict = {}


def _contour_nodes(spec: QuadratureSpec):
    key = (spec.radius, spec.nodes)
    got = _NODE_CACHE.get(key)
    if got is None:
        n = spec.nodes
        zs = []
        rg = []
        for j in range(n):
            th = -math.pi + 2.0 * math.pi * j / n
            z = spec.radius * cmath.exp(1j * th)
            zs.append(z)
            rg.append(recip_gamma(z))
        got = (tuple(zs), tuple(rg))
        _NODE_CACHE[key] = got
    return got


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
    zs, rg = _contour_nodes(spec)
    total = 0j
    for z, r in zip(zs, rg):
        total += r / ((z - a) * (z - a - b))
    return total / spec.nodes


def g_shift(a, b, g0):
    """(G(a+1,b), G(a+2,b)) from g0 = G(a,b) via

        (a+1)(a+b+1) G(a+1,b) = (a+1) G(a,b) - 1/Gamma(a+1),
        (a+2)(a+b+2) G(a+2,b) = (2a+b+3) G(a+1,b) - G(a,b).

    Intended for at most two steps; the stability of longer chains is not
    established, so a warning accompanies external use beyond that (see
    g_resolve).
    """
    a = complex(a)
    b = complex(b)
    f1 = (a + 1.0) * (a + b + 1.0)
    f2 = (a + 2.0) * (a + b + 2.0)
    if abs(f1) < 1e-150 or abs(f2) < 1e-150:
        raise DomainError("vanishing leading factor in G shift")
    g1 = ((a + 1.0) * g0 - recip_gamma(a + 1.0)) / f1
    g2 = ((2.0 * a + b + 3.0) * g1 - g0) / f2
    return g1, g2


def _g_shift_down(a, b, g0, steps):
    # G(a-1,b) = (a+b) G(a,b) + 1/Gamma(a+1); entire in all arguments.
    g = g0
    cur = complex(a)
    for _ in range(steps):
        g = (cur + b) * g + recip_gamma(cur + 1.0)
        cur -= 1.0
    return g


def g_resolve(a, b):
    """G(a,b) for arguments beyond the series domain.

    Routes: direct series when |a|, |a+b| <= 1/2; otherwise a shift of the
    first argument by up to two integer units from a series-domain base
    point; otherwise a contour quadrature with the radius widened to wrap
    both poles.
    """
    a = complex(a)
    b = complex(b)
    if abs(a) <= 0.5 and abs(a + b) <= 0.5:
        return g_series(a, b)
    m = int(min(2, max(-2, round(a.real))))
    a0 = a - m
    if m != 0 and abs(a0) <= 0.5 and abs(a0 + b) <= 0.5:
        g0 = g_series(a0, b)
        if m > 0:
            g1, g2 = g_shift(a0, b, g0)
            return g1 if m == 1 else g2
        return _g_shift_down(a0, b, g0, -m)
    rad = max(1.25, abs(a) + 0.35, abs(a + b) + 0.35)
    if rad > 3.0:
        raise DomainError("G argument too large for quadrature fallback")
    rho = max(abs(a), abs(a + b)) / rad
    n = 64 if rho < 0.45 else int(40.0 / -math.log(rho)) + 32
    n = min(4096, max(64, n))
    return g_quadrature(a, b, QuadratureSpec(radius=rad, nodes=n))


def gamma_eps(zv, eps):
    """Scaled gamma-ratio difference (Gamma(z+eps)/Gamma(z) - 1)/eps,
    computed as -Gamma(z+eps) * G(z-1, eps)."""
    zv = complex(zv)
    eps = complex(eps)
    return -gamma_fn(zv + eps) * g_resolve(zv - 1.0, eps)
