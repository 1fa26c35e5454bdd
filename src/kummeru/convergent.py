"""Convergent Bessel-type expansion of U (and M) with coupled forward
recurrences, scaling, five-term uncoupled recurrences, and a backward
minimal-solution probe.

The representation is

    U(a,b,z) = 2 (z/a)^{(1-b)/2} (e^{z/2}/Gamma(a))
               ( K_{b-1}(2 sqrt(az)) A(z) + sqrt(z/a) K_b(2 sqrt(az)) B(z) ),

    M(a;b;z)/Gamma(b) = (z/a)^{(1-b)/2} (Gamma(1+a-b) e^{z/2}/Gamma(a))
               ( I_{b-1}(2 sqrt(az)) A(z) - sqrt(z/a) I_b(2 sqrt(az)) B(z) ),

where A(z) = sum alpha_k z^k and B(z) = sum beta_k z^k are entire, with
coefficients obeying the coupled pair (k >= 1)

    alpha_{k-1} = 2b alpha_k + 4(k+1)(k+b) alpha_{k+1} - 4(2k+1) beta_k,
    beta_{k-1}  = 2b beta_k  + 4(k+1)(k+2-b) beta_{k+1} - 8a(k+1) alpha_{k+1}.

Rearranged to forward form and rescaled by at_k = k! 2^k alpha_k (and
likewise bt_k), which keeps magnitudes O(1) since (k!|alpha_k|)^{1/k} tends
to 1/2, the forward steps become

    at_{k+1} = ( k at_{k-1} - b at_k + 2(2k+1) bt_k ) / (k + b),
    bt_{k+1} = ( k bt_{k-1} - b bt_k + 2 a at_{k+1} ) / (k + 2 - b).

The recurrence runs in plain double arithmetic: the roundoff it adds along
the dominant solution stays below the error already carried by the initial
values.  Those are formed through the G function of gammakit, which removes
their small-b cancellation.  The achievable relative accuracy of U still
degrades like e^{4 sqrt(az)} * eps from the rounding of the initial values
themselves; the M combination is insensitive to this (it weights the
dominant direction).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .numcore import DomainError, EvalOutcome, phi1
from .gammakit import g_resolve, gamma_fn, recip_gamma
from .besselkit import bessel_i, bessel_k

_B_EXCLUSION = 1e-3  # radius of the rejected neighborhoods of b in {0,1,2}


# ---------------------------------------------------------------------------
# initial values and forward generation
# ---------------------------------------------------------------------------

def init_alpha_beta(a: float, b: float):
    """(alpha_0, alpha_1, beta_0, beta_1) with

        alpha_0 = a^{1-b} Gamma(a)/Gamma(a+1-b),
        alpha_1 = (alpha_0 (b^2 - b + 2a) - 2a) / (2b(1-b)),
        beta_0  = a (alpha_0 - 1) / (1 - b),
        beta_1  = a (alpha_0 (4a - 2b + b^2) - 4a + b^2) / (2b(b-1)(b-2)).

    The quantity X = (alpha_0 - 1)/b is formed directly from 1/Gamma(a+1-b)
    = 1/Gamma(a+1) - b G(a,-b), which removes the explicit division by b
    from every formula above.
    """
    a = float(a)
    b = float(b)
    if a <= 0:
        raise DomainError("need a > 0")
    for excl in (0.0, 1.0, 2.0):
        if abs(b - excl) < _B_EXCLUSION:
            raise DomainError(
                f"b within {_B_EXCLUSION} of {excl:g}: the initial values "
                "divide by (1-b)(2-b), and the Bessel orders b-1 and b are "
                "integers there, where the connection branch of bessel_k "
                "fails; use the power-series method in that region")
    la = math.log(a)
    # X = (a^{-b} - 1)/b - a^{1-b} Gamma(a) G(a,-b), exact as b -> 0
    x = (-la * phi1(-b * la)).real - a ** (1.0 - b) * gamma_fn(a).real \
        * g_resolve(a, -b).real
    alpha0 = 1.0 + b * x
    alpha1 = ((b - 1.0) + x * (b * b - b + 2.0 * a)) / (2.0 * (1.0 - b))
    beta0 = a * b * x / (1.0 - b)
    beta1 = a * (2.0 * (b - 1.0) + x * (4.0 * a - 2.0 * b + b * b)) \
        / (2.0 * (b - 1.0) * (b - 2.0))
    return alpha0, alpha1, beta0, beta1


@dataclass(frozen=True)
class ABCoefficients:
    """Scaled coefficient sequences at_k = k! 2^k alpha_k, bt_k likewise,
    stored for k = 0 .. n-1."""

    a: float
    b: float
    n: int
    alpha_scaled: tuple
    beta_scaled: tuple

    def unscaled(self, k: int):
        f = _fact2(k)
        return self.alpha_scaled[k] / f, self.beta_scaled[k] / f


def _fact2(k: int) -> float:
    # k! 2^k, exact in double for k <= 22
    f = 1.0
    for j in range(1, k + 1):
        f *= 2.0 * j
    return f


def forward_coeffs(a: float, b: float, n: int) -> ABCoefficients:
    """Generate n scaled coefficient pairs (indices 0..n-1) forward."""
    if n < 2:
        raise DomainError("need n >= 2 coefficients")
    a = float(a)
    b = float(b)
    a0, a1, b0, b1 = init_alpha_beta(a, b)
    alt = [a0, 2.0 * a1]
    bet = [b0, 2.0 * b1]
    for k in range(1, n - 1):
        nxt_a = (k * alt[k - 1] - b * alt[k] + 2.0 * (2 * k + 1) * bet[k]) \
            / (k + b)
        nxt_b = (k * bet[k - 1] - b * bet[k] + 2.0 * a * nxt_a) / (k + 2.0 - b)
        alt.append(nxt_a)
        bet.append(nxt_b)
    return ABCoefficients(a=a, b=b, n=n, alpha_scaled=tuple(alt),
                          beta_scaled=tuple(bet))


@dataclass(frozen=True)
class FiveTermRow:
    """Coefficients of the two uncoupled five-term recurrences at index k:
    p for the alpha sequence, q for the beta sequence, each ordered
    (offset -3, -2, -1, 0, +1)."""

    k: int
    p: tuple
    q: tuple


def five_term_coeffs(k: int, a: float, b: float) -> FiveTermRow:
    """The displayed coefficient blocks of the uncoupled recurrences,
    valid for k >= 3."""
    if k < 3:
        raise DomainError("five-term rows start at k = 3")
    a = float(a)
    b = float(b)
    kk = float(k)
    p = (
        -(2 * kk - 1) * (2 * kk + 1),
        8 * b * (2 * kk + 1) * (kk - 1),
        (-8 + 4 * b + 8 * kk ** 2 + 24 * kk - 64 * kk ** 3 + 32 * kk ** 4
         + 12 * b ** 2 - 16 * kk * b + 16 * b * kk ** 2
         - 16 * kk ** 2 * b ** 2 + 16 * kk * b ** 2),
        16 * kk * (2 * kk - 3) * (8 * a * kk ** 2 - 2 * b * kk ** 2
                                  - b ** 2 - 2 * a + b),
        16 * kk * (2 * kk - 1) * (2 * kk - 3) * (kk + 1) * (kk + b)
        * (-kk - 1 + b),
    )
    q = (
        kk,
        -2 * b * (2 * kk - 1),
        4 * (kk - 1) * (-2 * kk ** 2 + b ** 2),
        -8 * kk * (2 * kk + 1) * (kk - 1) * (4 * a - b),
        16 * kk * (kk - 1) * (kk + 1) * (kk + b) * (kk + 2 - b),
    )
    return FiveTermRow(k=k, p=p, q=q)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_AB(coeffs: ABCoefficients, z, n: int | None = None):
    """(A(z), B(z), last_term_magnitude) summed from scaled storage.

    Each term is unscaled exactly per index: alpha_k z^k = at_k/(k! 2^k) z^k
    with k! 2^k exact in double for k <= 22."""
    z = complex(z)
    if n is None:
        n = coeffs.n
    if n > coeffs.n:
        raise DomainError("more terms requested than stored")
    f = 1.0
    zp = 1.0 + 0j
    asum = 0j
    bsum = 0j
    last = 0.0
    for k in range(n):
        if k > 0:
            f *= 2.0 * k
            zp *= z
        ta = (coeffs.alpha_scaled[k] / f) * zp
        tb = (coeffs.beta_scaled[k] / f) * zp
        asum += ta
        bsum += tb
        last = max(abs(ta), abs(tb))
    return asum, bsum, last


def _bessel_sums(a: float, b: float, z, n: int, coeffs):
    """(a, b, z, 2 sqrt(az), A(z), B(z), last term) for both Bessel forms,
    summing n pairs of coeffs (built here when absent or too short)."""
    if n < 1:
        raise DomainError("need n >= 1 coefficient pairs")
    a = float(a)
    b = float(b)
    z = complex(z)
    if coeffs is None or coeffs.n < n:
        coeffs = forward_coeffs(a, b, max(n, 2))
    az = a * z
    if az.imag == 0.0 and az.real <= 0.0:
        raise DomainError("az on the nonpositive real axis: use the "
                          "power-series method there")
    return (a, b, z, 2.0 * cmath.sqrt(az)) + eval_AB(coeffs, z, n)


def u_bessel_convergent(a: float, b: float, z, n: int = 20,
                        coeffs: ABCoefficients | None = None) -> EvalOutcome:
    """U(a,b,z) from the K-Bessel representation with n coefficient pairs.

    Domain error where U underflows the double range (|U| below the
    smallest normal double)."""
    a, b, z, w, asum, bsum, last = _bessel_sums(a, b, z, n, coeffs)
    kb1 = bessel_k(b - 1.0, w)
    kb = bessel_k(b, w)
    sq = cmath.sqrt(z / a)
    pref = 2.0 * cmath.exp((1.0 - b) / 2.0 * cmath.log(z / a)) \
        * cmath.exp(z / 2.0) * recip_gamma(a)
    val = pref * (kb1 * asum + sq * kb * bsum)
    if abs(val) < sys.float_info.min:
        raise DomainError("U underflows the double range")
    est = abs(pref) * (abs(kb1) + abs(sq * kb)) * last
    return EvalOutcome(u=val, u_prime=None, terms_used=n,
                       est_abs_error=est, method="convergent")


def m_bessel_convergent(a: float, b: float, z, n: int = 20,
                        coeffs: ABCoefficients | None = None):
    """M(a;b;z)/Gamma(b) from the companion I-Bessel representation."""
    a, b, z, w, asum, bsum, _ = _bessel_sums(a, b, z, n, coeffs)
    pref = cmath.exp((1.0 - b) / 2.0 * cmath.log(z / a)) \
        * gamma_fn(1.0 + a - b) * cmath.exp(z / 2.0) * recip_gamma(a)
    return pref * (bessel_i(b - 1.0, w) * asum
                   - cmath.sqrt(z / a) * bessel_i(b, w) * bsum)


# ---------------------------------------------------------------------------
# backward minimal-solution probe
# ---------------------------------------------------------------------------

@dataclass
class ProbeReport:
    """Outcome of the backward-recursion probe."""

    k_start: int
    seed_count: int
    ratio_alpha: float
    ratio_beta: float
    seed_spread: float
    matches_initial_values: bool


def _backward_ratio(row_sel: str, a: float, b: float, k_start: int, seed4):
    # window holds (x_{k+1}, x_k, x_{k-1}, x_{k-2}) while stepping k down;
    # seeds populate x at k_start .. k_start-3
    w3, w2, w1, w0_ = (float(s) for s in seed4)
    # w3 = x_{k_start}, w2 = x_{k_start-1}, ...
    vals = [w3, w2, w1, w0_]
    for k in range(k_start - 1, 2, -1):
        row = five_term_coeffs(k, a, b)
        c = row.p if row_sel == "p" else row.q
        x = -(c[1] * vals[-1] + c[2] * vals[-2] + c[3] * vals[-3]
              + c[4] * vals[-4]) / c[0]
        vals.append(x)
        if abs(x) > 1e250:
            vals = [v * 1e-250 for v in vals]
    # vals now ends with ... x_1, x_0
    x0 = vals[-1]
    x1 = vals[-2]
    if x0 == 0.0:
        return math.inf
    return x1 / x0


def _expand_seed(seed):
    seed = tuple(float(s) for s in seed)
    if len(seed) == 4:
        return seed
    if len(seed) == 2:
        x, y = seed
        return (x, y, x, y)
    raise DomainError("each seed must be a pair or a 4-tuple")


def backward_probe(a: float, b: float, k_start: int, seeds) -> ProbeReport:
    """Run both five-term recurrences backward from arbitrary seeds and
    report the recovered alpha_1/alpha_0 and beta_1/beta_0 ratios.

    Seed-independence of the ratios (small seed_spread) is evidence that a
    minimal solution exists; matches_initial_values reports whether the
    recovered ratios agree (to 1e-3 relative) with the true initial values,
    i.e. whether that minimal solution is the wanted one.
    """
    if k_start < 6:
        raise DomainError("k_start too small")
    seeds = [_expand_seed(s) for s in seeds]
    if not seeds:
        raise DomainError("need at least one seed")
    ra = [_backward_ratio("p", a, b, k_start, s) for s in seeds]
    rb = [_backward_ratio("q", a, b, k_start, s) for s in seeds]

    def spread(rs):
        if len(rs) < 2:
            return 0.0
        lo = min(rs)
        hi = max(rs)
        scale = max(abs(lo), abs(hi))
        return 0.0 if scale == 0 else (hi - lo) / scale

    a0, a1, b0, b1 = init_alpha_beta(a, b)
    true_ra = a1 / a0
    true_rb = b1 / b0
    mean_ra = sum(ra) / len(ra)
    mean_rb = sum(rb) / len(rb)
    matches = (abs(mean_ra - true_ra) <= 1e-3 * abs(true_ra)
               and abs(mean_rb - true_rb) <= 1e-3 * abs(true_rb))
    return ProbeReport(k_start=k_start, seed_count=len(seeds),
                       ratio_alpha=mean_ra, ratio_beta=mean_rb,
                       seed_spread=max(spread(ra), spread(rb)),
                       matches_initial_values=matches)
