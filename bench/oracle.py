"""mpmath references and the failure classifier.  Benchmark-only: kummeru
itself never imports mpmath.

References are computed at ``DPS`` (30) significant digits or more, outside
the timed section, and stored as decimal strings so they can be cached on
disk and reused by every run of the same seed.

Accuracy bounds, one per route, from each route's documented error
scaling (eps = 2**-52):

* power       1e-12 relative;
* convergent  C * exp(4 sqrt|az|) * eps / |b (1-b) (2-b)| relative: the
              rounding loss the ``kummeru.convergent`` docstring states,
              amplified by the b(1-b)(2-b) its initial values divide by;
* slater      C * u**(-2K) relative with u = sqrt(4a - 2b) and K = 4
              pairs, the truncation order the ``kummeru.slater`` docstring
              states.

C = 64.  Over 16 000 points per route the worst measured ratio of error to
scaling was about 10 on both routes, so the bound leaves a factor of six
and a failure means the route got worse, not noise.

A result fails when the call raises, when it is not finite, or when its
relative error against the reference exceeds the bound; a silent 0.0 or
subnormal where the reference is a normal number therefore fails.

A grid cell of ``terms_needed`` reports a count n and the error the library
measured at it.  The cell fails unless that error is at most the target
when n is within the search budget (and above it when n is past the
budget), and it agrees with the exact truncation error at n to within the
convergent bound.  The count is not compared with the exact count: the
library measures in double precision, so where the exact errors of several
counts lie within the bound of the target, rounding decides between them.
Over 4 240 seed-commit cells the measured error differed from the exact
one by at most 0.9 of the bound's scaling.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import mpmath as mp

DPS = 30
EPS = 2.0 ** -52
POWER_BOUND = 1e-12
ROUTE_C = 64.0
SLATER_K = 4
# |b| below this is evaluated at +-TINY_B: U is analytic in b, so the
# change is below 1e-35 relative, far under the DPS digits kept.
TINY_B = 1e-35
_DBL_MIN = 2.2250738585072014e-308

def _mpz(z: complex):
    return mp.mpf(z.real) if z.imag == 0.0 else mp.mpc(z.real, z.imag)


def _pack(x) -> tuple:
    x = mp.mpc(x)
    return (mp.nstr(x.real, DPS + 5), mp.nstr(x.imag, DPS + 5))


def unpack(t: tuple):
    return mp.mpc(mp.mpf(t[0]), mp.mpf(t[1]))


def ref_point(fn: str, a: float, b: float, z: complex) -> tuple:
    """Reference value of one point, packed: U(a,b,z) for "u" and
    "slater_u", M(a;b;z) for "slater_m"."""
    with mp.workdps(DPS):
        if fn == "slater_m":
            return _pack(mp.hyp1f1(a, b, _mpz(z)))
        bb = b if abs(b) >= TINY_B else math.copysign(TINY_B, b)
        return _pack(mp.hyperu(a, bb, _mpz(z)))


# ---------------------------------------------------------------------------
# grid oracle: coefficient counts from the exact truncated expansion
# ---------------------------------------------------------------------------

def ab_coefficients(a, b, n: int):
    """alpha_0..alpha_{n-1}, beta_0..beta_{n-1} of the convergent expansion,
    by the forward recurrence in the working precision (call inside a
    raised-precision context)."""
    a = mp.mpf(a)
    b = mp.mpf(b)
    al0 = a ** (1 - b) * mp.gamma(a) * mp.rgamma(a + 1 - b)
    al = [al0, (al0 * (b * b - b + 2 * a) - 2 * a) / (2 * b * (1 - b))]
    be = [a * (al0 - 1) / (1 - b),
          a * (al0 * (4 * a - 2 * b + b * b) - 4 * a + b * b)
          / (2 * b * (b - 1) * (b - 2))]
    for k in range(1, n - 1):
        al.append((al[k - 1] - 2 * b * al[k] + 4 * (2 * k + 1) * be[k])
                  / (4 * (k + 1) * (k + b)))
        be.append((be[k - 1] - 2 * b * be[k] + 8 * a * (k + 1) * al[k + 1])
                  / (4 * (k + 1) * (k + 2 - b)))
    return al[:n], be[:n]


def expansion_errors(a, b, z, n_max: int, al=None, be=None):
    """Relative errors of the convergent expansion truncated after n terms,
    n = 1..n_max, against mpmath's U (a <= 2.5) or M/Gamma(b) (a > 2.5):
    the references ``kummeru.cli.grid_rows`` uses for its two bands."""
    with mp.workdps(DPS + 20):
        if al is None:
            al, be = ab_coefficients(a, b, n_max)
        a = mp.mpf(a)
        b = mp.mpf(b)
        z = mp.mpf(z)
        w = 2 * mp.sqrt(a * z)
        sq = mp.sqrt(z / a)
        low = a <= 2.5
        if low:
            pref = 2 * (z / a) ** ((1 - b) / 2) * mp.exp(z / 2) / mp.gamma(a)
            p, q = pref * mp.besselk(b - 1, w), pref * sq * mp.besselk(b, w)
            true = mp.hyperu(a, b, z)
        else:
            pref = (z / a) ** ((1 - b) / 2) * mp.gamma(1 + a - b) \
                * mp.exp(z / 2) / mp.gamma(a)
            p, q = pref * mp.besseli(b - 1, w), -pref * sq * mp.besseli(b, w)
            true = mp.hyp1f1(a, b, z) * mp.rgamma(b)
        out = []
        asum = bsum = mp.mpf(0)
        zp = mp.mpf(1)
        for k in range(n_max):
            asum += al[k] * zp
            bsum += be[k] * zp
            zp *= z
            out.append(float(abs(p * asum + q * bsum - true) / abs(true)))
        return out


def grid_cells(req):
    """The cells of a grid request as kummeru's grid documents them: the
    evenly spaced (a, z) lattice, limited to the convergent region."""
    da = (req.a_max - req.a_min) / (req.a_steps - 1)
    dz = (req.z_max - req.z_min) / (req.z_steps - 1)
    cells = []
    for i in range(req.a_steps):
        a = req.a_min + i * da
        for j in range(req.z_steps):
            z = req.z_min + j * dz
            if a > 0 and z > 0 and a * z <= 10.0 and 0.05 <= req.b <= 0.95:
                cells.append((a, z))
    return cells


def ref_grid(req, n_terms: int) -> tuple:
    """((a, z, errs), ...) per cell: errs[n-1] is the exact relative error
    of the expansion truncated after n terms, n = 1..n_terms."""
    out = []
    rows = {}
    for a, z in grid_cells(req):
        if a not in rows:
            with mp.workdps(DPS + 20):
                rows[a] = ab_coefficients(a, req.b, n_terms)
        out.append((a, z, tuple(expansion_errors(a, req.b, z, n_terms, *rows[a]))))
    return tuple(out)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def bound_for(route: str, a: float, b: float, z: complex) -> float:
    if route == "power":
        return POWER_BOUND
    if route == "convergent":
        return (ROUTE_C * math.exp(4.0 * math.sqrt(abs(a * z))) * EPS
                / abs(b * (1.0 - b) * (2.0 - b)))
    return ROUTE_C * (4.0 * a - 2.0 * b) ** -SLATER_K


class Verdict(NamedTuple):
    """Outcome of checking one point or grid cell."""

    ok: bool
    reason: str | None                # None when ok
    rel_err: float | None = None      # against the oracle, points only
    covered: bool | None = None       # est_abs_error >= actual error


def _raised(message: str) -> str:
    # "DomainError: gamma pole at (200.7+0j)" -> drop the numbers
    return "raised " + re.split(r"[\d(]", message)[0].strip()


def classify_point(point, result, ref) -> Verdict:
    """Check one point.  ``result`` is the client's (route, value, est)
    tuple, or the "Type: message" string of the exception the call
    raised; ``ref`` the packed reference."""
    with mp.workdps(DPS):
        r = unpack(ref)
        if isinstance(result, str):
            return Verdict(False, _raised(result))
        route, value, est = result
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            return Verdict(False, "non-finite")
        abs_err = abs(mp.mpc(value) - r)
        rel = float(abs_err / abs(r)) if r != 0 else float(abs_err)
    covered = None if est is None else bool(est >= abs_err)
    if rel <= bound_for(route, point.a, point.b, point.z):
        return Verdict(True, None, rel, covered)
    reason = "silent underflow" if abs(value) < _DBL_MIN else f"{route} accuracy"
    return Verdict(False, reason, rel, covered)


def classify_grid(req, result, ref, tol: float, n_terms: int) -> list:
    """Per-cell verdicts of one grid request (one failing verdict when the
    call raised or returned other cells than the request implies)."""
    if isinstance(result, str):
        return [Verdict(False, _raised(result))]
    if len(result) != len(ref) or any(
            abs(c[0] - r[0]) > 1e-12 * abs(r[0]) or abs(c[1] - r[1]) > 1e-12
            for c, r in zip(result, ref)):
        return [Verdict(False, "wrong cells")]
    out = []
    for (a, z, n, err), (_, _, errs) in zip(result, ref):
        if not 2 <= n <= n_terms + 1 or (err <= tol) != (n <= n_terms):
            out.append(Verdict(False, "terms_used inconsistent"))
        elif abs(err - errs[min(n, n_terms) - 1]) > bound_for(
                "convergent", a, req.b, complex(z)):
            out.append(Verdict(False, "grid error"))
        else:
            out.append(Verdict(True, None))
    return out
