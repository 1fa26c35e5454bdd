"""Kummer function U(a,b,z) and its z-derivative for small arguments.

Three independent evaluation routes with built-in cross-validation:

* ``powerseries`` - paired power series, uniformly stable as b -> 0;
* ``slater``      - large-a asymptotics in modified Bessel functions;
* ``convergent``  - convergent Bessel-type expansion with forward
  recurrences and a backward stability probe;

supported by ``gammakit`` (reciprocal gamma, the G difference function with
series and contour-quadrature routes) and ``besselkit`` (I/K Bessel).

``kummer_u`` is the front door: it evaluates U by a named route, or by the
one ``select_method`` picks.
"""

from .numcore import (ConvergenceError, DomainError, EvalOutcome,
                      RealPolynomial, StructuralError, cexpm1)
from .gammakit import (EULER_GAMMA, QuadratureSpec, RECIP_GAMMA_COEFFS,
                       g_quadrature, g_resolve, g_series, gamma_fn,
                       generate_ck, recip_gamma, zeta)
from .besselkit import bessel_i, bessel_k
from .powerseries import (KummerInput, eval_u, kummer_m_direct, raise_b,
                          series_step_coeffs, shift_a_down, w0)
from .slater import SlaterCoeffSet, SlaterEval, slater_coeffs, slater_m, slater_u
from .convergent import (ABCoefficients, FiveTermRow, ProbeReport,
                         backward_probe, eval_AB, five_term_coeffs,
                         forward_coeffs, init_alpha_beta, m_bessel_convergent,
                         u_bessel_convergent)

__version__ = "0.1.0"

__all__ = [
    "ABCoefficients", "ConvergenceError", "DomainError", "EULER_GAMMA",
    "EvalOutcome", "FiveTermRow", "KummerInput", "ProbeReport",
    "QuadratureSpec", "RECIP_GAMMA_COEFFS", "RealPolynomial",
    "SlaterCoeffSet", "SlaterEval", "StructuralError",
    "backward_probe", "bessel_i", "bessel_k", "cexpm1", "eval_AB", "eval_u",
    "five_term_coeffs", "forward_coeffs", "g_quadrature", "g_resolve",
    "g_series", "gamma_fn", "generate_ck",
    "init_alpha_beta", "kummer_m_direct", "kummer_u", "m_bessel_convergent",
    "raise_b", "recip_gamma", "select_method", "series_step_coeffs",
    "shift_a_down", "slater_coeffs", "slater_m", "slater_u",
    "u_bessel_convergent", "w0", "zeta",
]


def _in_convergent_domain(a: float, b: float, z: complex) -> bool:
    """Advertised validity region of the convergent method.

    |z| <= 4 (implied by |az| <= 10 once a >= 2.5) keeps the truncation of
    the default 20 coefficient pairs, about (|z|/2)^20/20!, below 1e-12.
    az on the nonpositive real axis is the K-Bessel branch cut."""
    return (a > 0 and 0.05 <= b <= 0.95 and abs(z * a) <= 10.0
            and abs(z) <= 4.0 and not (z.imag == 0.0 and z.real <= 0.0))


def _real_ab(a, b):
    """(a, b) as floats; only the power route covers non-real a or b."""
    a, b = complex(a), complex(b)
    if a.imag != 0.0 or b.imag != 0.0:
        raise DomainError("non-real a or b is only covered by the power "
                          "route (|a| <= 2.5, |z| <= 1.5)")
    return a.real, b.real


def select_method(a: float, b: float, z: complex) -> str:
    """Deterministic auto-selection; ties broken power > convergent > slater.

    The power-series bound admits |z| up to sqrt(2) so that the reference
    complex points (like 1+i) stay on their intended route."""
    if z == 0:
        raise DomainError("z must be nonzero")
    if abs(a) <= 2.5 and abs(z) <= 1.5:
        return "power"
    a, b = _real_ab(a, b)
    if _in_convergent_domain(a, b, z):
        return "convergent"
    if a >= 30.0 and z.imag == 0.0 and z.real > 0:
        return "slater"
    raise DomainError("no method covers this parameter point")


def kummer_u(a: float, b: float, z, method: str = "auto",
             terms: int | None = None, tol: float = 1e-16) -> EvalOutcome:
    """U(a,b,z) by the named route, or by select_method's choice for "auto".

    terms is the series budget on the power route (default 200) and the
    number of coefficient pairs on the convergent (default 20) and slater
    (default 4) routes; a value below 1 is a DomainError on every route.
    tol is the power series' term tolerance.  U' is only produced by the
    power route.
    """
    z = complex(z)
    if method == "auto":
        method = select_method(a, b, z)
    if method == "power":
        return eval_u(KummerInput(a=a, b=b, z=z, tol=tol,
                                  max_terms=200 if terms is None else terms))
    a, b = _real_ab(a, b)
    if method == "convergent":
        return u_bessel_convergent(a, b, z, n=20 if terms is None else terms)
    if method == "slater":
        if z.imag != 0.0:
            raise DomainError("slater method requires real z")
        K = 4 if terms is None else terms
        val, est = slater_u(a, b, z.real, K=K)
        return EvalOutcome(u=complex(val), terms_used=K, est_abs_error=est,
                           method="slater")
    raise DomainError(f"unknown method {method!r}")

