"""Modified Bessel functions I_nu and K_nu of real order, complex argument.

Small machinery with hard accuracy contracts, sized for the orders this
package actually uses (|nu| <= 3, typically nu in {b-1, b}) and arguments up
to a few tens.

* I_nu: ascending series with reciprocal-gamma terms; for real positive
  arguments every term is positive, so there is no cancellation.
* K_nu: for small |w| the connection formula
      K_nu = (pi / (2 sin pi nu)) (I_{-nu} - I_nu),
  which loses roughly e^{2|w|} ulp to cancellation and is therefore confined
  to |w| <= 1; beyond that the exponentially decaying integral
      K_nu(w) = Int_0^inf e^{-w cosh t} cosh(nu t) dt   (Re w > 0)
  evaluated with the trapezoidal rule, which is spectrally accurate here.
"""

from __future__ import annotations

import cmath
import math

from .numcore import DomainError

_MAX_ORDER = 3.0
_MAX_ARG_I = 30.0
_CONNECTION_RADIUS = 1.0  # seam between the two K branches


def bessel_i(nu: float, w):
    """I_nu(w) by the ascending series, principal branch of (w/2)^nu.

    Relative accuracy ~1e-14 for |w| <= 30.  Negative integer orders are
    folded onto positive ones (I_{-n} = I_n).
    """
    if abs(nu) > _MAX_ORDER + 1e-12:
        raise DomainError("order out of range (|nu| <= 3)")
    w = complex(w)
    if abs(w) > _MAX_ARG_I:
        raise DomainError("argument too large for the ascending series")
    n = round(nu)
    if abs(nu - n) < 1e-12 and n < 0:
        nu = -nu
    if w == 0:
        if nu == 0:
            return 1.0 + 0j
        if nu > 0:
            return 0j
        raise DomainError("I_nu(0) diverges for negative non-integer order")
    from .gammakit import recip_gamma
    term = recip_gamma(nu + 1.0) + 0j
    total = term
    q = w * w / 4.0
    for k in range(1, 400):
        term *= q / (k * (nu + k))
        total += term
        if abs(term) <= 1e-18 * abs(total):
            break
    return cmath.exp(nu * cmath.log(w / 2.0)) * total


def _k_connection(nu: float, w):
    s = math.sin(math.pi * nu)
    return (math.pi / (2.0 * s)) * (bessel_i(-nu, w) - bessel_i(nu, w))


def _k_quadrature(nu: float, w, nodes: int | None = None):
    """Trapezoidal rule for Int_0^inf e^{-w cosh t} cosh(nu t) dt.

    The integration range is truncated where the integrand falls below
    1e-19 of the t=0 value; the default step keeps the discretisation error
    below that as well (for arguments with a large imaginary-to-real ratio
    the step is refined to resolve the oscillation).
    """
    x = w.real
    if x <= 0:
        raise DomainError("K quadrature requires Re w > 0")
    T = math.acosh(1.0 + (46.0 + 18.0 * abs(nu)) / max(x, 0.01))
    if nodes is None:
        h = 0.1
        osc = abs(w.imag) * math.cosh(T)  # max phase derivative on [0, T]
        if osc > 5.0:
            h = max(min(h, math.pi / (4.0 * osc)), 1e-4)
        nodes = int(math.ceil(T / h))
    h = T / nodes
    total = 0.5 * cmath.exp(-w)
    for j in range(1, nodes + 1):
        t = j * h
        total += cmath.exp(-w * math.cosh(t)) * math.cosh(nu * t)
    return h * total


def bessel_k(nu: float, w):
    """K_nu(w) for Re w > 0, |nu| <= 3.

    Order symmetry K_{-nu} = K_nu is applied first.  Near-integer orders are
    rejected on the connection branch (the caller must route around them);
    the quadrature branch has no such restriction.
    """
    if abs(nu) > _MAX_ORDER + 1e-12:
        raise DomainError("order out of range (|nu| <= 3)")
    w = complex(w)
    if w.real <= 0:
        raise DomainError("K_nu requires Re w > 0")
    nu = abs(nu)
    if abs(w) <= _CONNECTION_RADIUS:
        if abs(nu - round(nu)) < 1e-6:
            raise DomainError("order too close to an integer for the "
                              "connection-formula branch")
        return _k_connection(nu, w)
    return _k_quadrature(nu, w)
