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
chosen so that A_{k+1}(0) = 0.  The generation is exact polynomial
arithmetic for a fixed numeric b; both evaluators truncate after K
coefficient pairs, so the error scales as u^{-2K}.

Real a, b, z only: the expansion is used in its oscillation-free regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numcore import DomainError, RealPolynomial
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


def slater_coeffs(b: float, K: int) -> SlaterCoeffSet:
    """Generate A_0..A_K and B_0..B_{K-1} for the given b."""
    if K < 1:
        raise DomainError("need K >= 1")
    b = float(b)
    half = b - 0.5
    A = [RealPolynomial.of([1.0])]
    B = []
    for k in range(K):
        ak = A[k]
        akp = ak.derivative()
        integrand = ak.shift_up(2).scaled(0.5) + akp.divide_by_var().scaled(-half)
        bk = akp.scaled(-0.5) + integrand.antiderivative()
        B.append(bk)
        bkp = bk.derivative()
        anext = (bk.divide_by_var().scaled(half)
                 + bkp.scaled(-0.5)
                 + bk.shift_up(2).scaled(0.5).antiderivative())
        coeffs = list(anext.coeffs)
        coeffs[0] = 0.0  # K_k cancels the constant term
        A.append(RealPolynomial.of(coeffs))
    return SlaterCoeffSet(b=b, K=K, A=tuple(A), B=tuple(B))


def _sums(cs: SlaterCoeffSet, z: float, u: float, K: int):
    u2 = u * u
    sa = 0.0
    sb = 0.0
    p = 1.0
    for k in range(K):
        sa += cs.A[k](z) / p
        sb += cs.B[k](z) / p
        p *= u2
    # magnitude of the first omitted coefficient pair, for error reporting
    tail = (abs(cs.A[K](z)) if K < len(cs.A) else 0.0) / p
    if K < len(cs.B):
        tail += abs(cs.B[K](z)) / (p * u)
    return sa, sb, tail


def slater_u(a: float, b: float, zsq: float, K: int = 4):
    """U(a,b,zsq) from the K-Bessel expansion truncated at K pairs.

    Returns (value, est_abs_error)."""
    if K < 1:
        raise DomainError("need K >= 1 coefficient pairs")
    pt = SlaterEval(a=float(a), b=float(b), z_arg=math.sqrt(float(zsq)))
    z = pt.z_arg
    u = pt.u
    # one extra pair so the first omitted pair is available for the estimate
    coeffs = slater_coeffs(pt.b, K + 1)
    sa, sb, tail = _sums(coeffs, z, u, K)
    pref = 2.0 ** b * u ** (1.0 - b) / gamma_fn(1.0 + a - b).real
    kb1 = bessel_k(b - 1.0, u * z).real
    kb = bessel_k(b, u * z).real
    scaled = pref * (z * kb1 * sa - (z / u) * kb * sb)
    unscale = math.exp(zsq / 2.0) * zsq ** (-b / 2.0)
    est = abs(pref) * (z * abs(kb1) + (z / u) * abs(kb)) * tail * unscale
    return scaled * unscale, est


def slater_m(a: float, b: float, zsq: float, K: int = 4):
    """M(a;b;zsq) from the companion I-Bessel expansion."""
    pt = SlaterEval(a=float(a), b=float(b), z_arg=math.sqrt(float(zsq)))
    z = pt.z_arg
    u = pt.u
    sa, sb, _ = _sums(slater_coeffs(pt.b, K), z, u, K)
    pref = gamma_fn(b).real * u ** (1.0 - b) * 2.0 ** (b - 1.0)
    ib1 = bessel_i(b - 1.0, u * z).real
    ib = bessel_i(b, u * z).real
    scaled = pref * (z * ib1 * sa + (z / u) * ib * sb)
    return scaled * math.exp(zsq / 2.0) * zsq ** (-b / 2.0)
