"""Large-a asymptotic expansions of M and U in modified Bessel functions.

With the large parameter u defined by a = u^2/4 + b/2 (u > 0 for real
a > b/2), the expansions read

  e^{-z^2/2} z^b M(a;b;z^2) ~ Gamma(b) u^{1-b} 2^{b-1}
      ( z I_{b-1}(uz) sum_k A_k(z)/u^{2k} + (z/u) I_b(uz) sum_k B_k(z)/u^{2k} ),

  e^{-z^2/2} z^b U(a,b,z^2) ~ (2^b u^{1-b} / Gamma(1+a-b))
      ( z K_{b-1}(uz) sum_k A_k(z)/u^{2k} - (z/u) K_b(uz) sum_k B_k(z)/u^{2k} ),

where the coefficient polynomials are generated by A_0 = 1 and

  B_k(z)     = -A_k'(z)/2 + Int_0^z ( t^2 A_k(t)/2 - (b-1/2) A_k'(t)/t ) dt,
  A_{k+1}(z) = (b-1/2) B_k(z)/z - B_k'(z)/2 + Int^z t^2 B_k(t)/2 dt + K_k,

with the integration constant of the indefinite integral fixed to 0 and K_k
chosen so that A_{k+1}(0) = 0.  Every step is linear in h = b - 1/2, so
A_k and B_k are polynomials in (h, z), of degree at most 2k and 2k + 1 in
h.  They are generated once, in floating point, into a table shared by
every b, and each call evaluates the entries it needs at its own h.  Both
evaluators truncate after K coefficient pairs, so the error scales as
u^{-2K}.

Real a, b, z only: the expansion is used in its oscillation-free regime.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .numcore import DomainError, RealPolynomial, StructuralError
from .gammakit import gamma_fn
from .besselkit import bessel_i, bessel_k


@dataclass(frozen=True)
class SlaterCoeffSet:
    """Coefficient polynomial pairs A_k(z), B_k(z) for a fixed b."""

    b: float
    K: int
    A: tuple  # K+1 polynomials A_0..A_K
    B: tuple  # K polynomials B_0..B_{K-1}


@dataclass(frozen=True)
class SlaterEval:
    """Evaluation point with the derived large parameter u = sqrt(4a-2b)."""

    a: float
    b: float
    z_arg: float  # the expansion variable z; the function argument is z^2

    def __post_init__(self):
        if self.a <= self.b / 2.0:
            raise DomainError("need a > b/2 for a real large parameter")
        if self.z_arg <= 0:
            raise DomainError("need z > 0")

    @property
    def u(self) -> float:
        return math.sqrt(4.0 * self.a - 2.0 * self.b)


# ---------------------------------------------------------------------------
# the coefficient table: polynomials in (h, z), h = b - 1/2
# ---------------------------------------------------------------------------

def _collect(*terms):
    """Sum streams of monomials ((i, j), c), for c z**i h**j, into one map."""
    out = {}
    for term in terms:
        for key, c in term:
            out[key] = out.get(key, 0.0) + c
    return out


def _shared_terms(p):
    """The monomials of -p'(z)/2 + Int_0^z t^2 p(t)/2 dt, common to both
    steps of the recurrence."""
    for (i, j), c in p.items():
        if i > 0:
            yield (i - 1, j), -0.5 * i * c
        yield (i + 3, j), 0.5 * c / (i + 3)


def _next_pair(ak):
    """(B_k, A_{k+1}) from A_k by the recurrence in the module docstring,
    on monomial maps {(i, j): c} for c z**i h**j."""
    if any(c for (i, _), c in ak.items() if i == 1):
        raise StructuralError("A_k'(z)/z with a nonzero constant term")
    # - Int_0^z h A_k'(t)/t dt
    bk = _collect(_shared_terms(ak), (((i - 1, j + 1), -i * c / (i - 1))
                                      for (i, j), c in ak.items() if i > 1))
    if any(c for (i, _), c in bk.items() if i == 0):
        raise StructuralError("B_k(z)/z with a nonzero constant term")
    # + h B_k(z)/z
    anext = _collect(_shared_terms(bk), (((i - 1, j + 1), c)
                                         for (i, j), c in bk.items() if i > 0))
    # K_k cancels the constant term
    return bk, {(i, j): c for (i, j), c in anext.items() if i > 0}


def _horner_order(p):
    """A monomial map as rows for z**deg down to z**0, each row holding the
    coefficients of a polynomial in h from the highest power down."""
    p = {key: c for key, c in p.items() if c != 0.0}
    rows = [[] for _ in range(1 + max(i for i, _ in p))]
    for (i, j), c in p.items():
        rows[i].extend([0.0] * (j + 1 - len(rows[i])))
        rows[i][j] = c
    return tuple(tuple(reversed(r)) for r in reversed(rows))


# (A_0..A_K, B_0..B_{K-1}, A_K as a monomial map); replaced, never mutated,
# so a reader's snapshot stays whole while another call grows the table.
_TABLE = ((((1.0,),),), (), {(0, 0): 1.0})


def coeff_table(K: int):
    """(A_0..A_K, B_0..B_{K-1}) as polynomials in (h, z), h = b - 1/2.

    Each polynomial is stored in Horner order: a tuple of rows for the
    powers of z from the highest down to z**0, each row holding the
    coefficients of a polynomial in h from the highest power down.  The
    table is built once, up to the largest K asked for, and shared by
    every b."""
    global _TABLE
    A, B, ak = _TABLE
    if len(B) < K:
        A, B = list(A), list(B)
        while len(B) < K:
            bk, ak = _next_pair(ak)
            B.append(_horner_order(bk))
            A.append(_horner_order(ak))
        A, B = tuple(A), tuple(B)
        _TABLE = (A, B, ak)
    return A, B


def _at(poly, h, z):
    """A table polynomial at (h, z): a Horner sum in h for each power of z,
    then one in z."""
    s = 0.0
    for row in poly:
        t = 0.0
        for c in row:
            t = t * h + c
        s = s * z + t
    return s


def slater_coeffs(b: float, K: int) -> SlaterCoeffSet:
    """A_0..A_K and B_0..B_{K-1} for the given b, read from the table."""
    if K < 1:
        raise DomainError("need K >= 1")
    b = float(b)
    h = b - 0.5
    A, B = coeff_table(K)

    def of(poly):
        # each row is a polynomial in h alone: a one-row poly at z = 0
        return RealPolynomial.of([_at((row,), h, 0.0) for row in reversed(poly)])

    return SlaterCoeffSet(b=b, K=K, A=tuple(of(p) for p in A[:K + 1]),
                          B=tuple(of(p) for p in B[:K]))


def _pair_sums(A, B, h, z, u2, K):
    """sum_{k<K} A_k(z)/u^{2k}, the same sum of B_k, and u^{2K}."""
    sa = 0.0
    sb = 0.0
    p = 1.0
    for k in range(K):
        sa += _at(A[k], h, z) / p
        sb += _at(B[k], h, z) / p
        p *= u2
    return sa, sb, p


def _real_gamma(w: float) -> float:
    """Gamma(w) for real w, with gamma_fn's domain errors."""
    try:
        g = math.gamma(w)
    except ValueError:
        raise DomainError(f"gamma pole at {w}") from None
    except OverflowError:
        raise DomainError(f"Gamma overflows the double range at {complex(w)}") from None
    if abs(g) * sys.float_info.max < 1.0:
        raise DomainError(f"1/Gamma overflows the double range at {complex(w)}")
    return g


def slater_u(a: float, b: float, zsq: float, K: int = 4):
    """U(a,b,zsq) from the K-Bessel expansion truncated at K pairs.

    Returns (value, est_abs_error); est is the first omitted pair's term.
    Domain error where U underflows the double range (|U| below the
    smallest normal double)."""
    if K < 1:
        raise DomainError("need K >= 1 coefficient pairs")
    pt = SlaterEval(a=float(a), b=float(b), z_arg=math.sqrt(float(zsq)))
    z = pt.z_arg
    u = pt.u
    h = pt.b - 0.5
    # one extra pair so the first omitted pair is available for the estimate
    A, B = coeff_table(K + 1)
    sa, sb, p = _pair_sums(A, B, h, z, u * u, K)
    tail = abs(_at(A[K], h, z)) / p + abs(_at(B[K], h, z)) / (p * u)
    pref = 2.0 ** b * u ** (1.0 - b) / _real_gamma(1.0 + a - b)
    kb1 = bessel_k(b - 1.0, u * z).real
    kb = bessel_k(b, u * z).real
    scaled = pref * (z * kb1 * sa - (z / u) * kb * sb)
    unscale = math.exp(zsq / 2.0) * zsq ** (-b / 2.0)
    value = scaled * unscale
    if abs(value) < sys.float_info.min:
        raise DomainError("U underflows the double range")
    est = abs(pref) * (z * abs(kb1) + (z / u) * abs(kb)) * tail * unscale
    return value, est


def slater_m(a: float, b: float, zsq: float, K: int = 4):
    """M(a;b;zsq) from the companion I-Bessel expansion."""
    pt = SlaterEval(a=float(a), b=float(b), z_arg=math.sqrt(float(zsq)))
    z = pt.z_arg
    u = pt.u
    if K < 1:
        raise DomainError("need K >= 1")
    A, B = coeff_table(K)
    sa, sb, _ = _pair_sums(A, B, pt.b - 0.5, z, u * u, K)
    pref = gamma_fn(b).real * u ** (1.0 - b) * 2.0 ** (b - 1.0)
    ib1 = bessel_i(b - 1.0, u * z).real
    ib = bessel_i(b, u * z).real
    scaled = pref * (z * ib1 * sa + (z / u) * ib * sb)
    return scaled * math.exp(zsq / 2.0) * zsq ** (-b / 2.0)
