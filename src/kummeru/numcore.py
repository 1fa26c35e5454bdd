"""Foundation numeric types and stable elementary helpers.

Everything downstream works on plain Python complex scalars. This module
adds the few things the standard library does not give us directly: a
complex expm1 that keeps full relative accuracy near 0, exact
real-coefficient polynomial arithmetic, and the shared result record for
function evaluations.

All operations are pure; nothing here holds mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class DomainError(ValueError):
    """Input outside the contract domain of an operation."""


class StructuralError(RuntimeError):
    """An internal algebraic invariant failed (indicates a bug, not bad input)."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge within its term budget."""


# ---------------------------------------------------------------------------
# complex scalar helpers
# ---------------------------------------------------------------------------

def cexpm1(w):
    """exp(w) - 1 with full relative accuracy for small |w|.

    With w = x + iy, Re = expm1(x) cos y - 2 sin^2(y/2) and
    Im = e^x sin y, so neither part subtracts 1 from a number near 1.
    """
    w = complex(w)
    x, y = w.real, w.imag
    s = math.sin(0.5 * y)
    return complex(math.expm1(x) * math.cos(y) - 2.0 * s * s,
                   math.exp(x) * math.sin(y))


def phi1(w):
    """(exp(w) - 1)/w, the removable-singularity-safe ratio; phi1(0) = 1."""
    w = complex(w)
    if w == 0:
        return 1.0 + 0j
    return cexpm1(w) / w


# ---------------------------------------------------------------------------
# real polynomials, ascending coefficient order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealPolynomial:
    """Polynomial with real coefficients, coeffs[i] multiplying x**i."""

    coeffs: tuple = (0.0,)

    @staticmethod
    def of(seq) -> "RealPolynomial":
        return RealPolynomial(_trim(tuple(float(c) for c in seq)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        s = 0.0
        for c in reversed(self.coeffs):
            s = s * x + c
        return s

    def derivative(self) -> "RealPolynomial":
        if len(self.coeffs) == 1:
            return RealPolynomial((0.0,))
        return RealPolynomial(_trim(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0)))

    def antiderivative(self) -> "RealPolynomial":
        """Antiderivative with integration constant fixed to 0."""
        return RealPolynomial(_trim((0.0,) + tuple(c / (i + 1) for i, c in enumerate(self.coeffs))))

    def divide_by_var(self) -> "RealPolynomial":
        """p(x)/x; requires a structurally zero constant term."""
        if abs(self.coeffs[0]) > 1e-300:
            raise StructuralError("divide_by_var with nonzero constant term")
        if len(self.coeffs) == 1:
            return RealPolynomial((0.0,))
        return RealPolynomial(_trim(self.coeffs[1:]))

    def shift_up(self, k: int) -> "RealPolynomial":
        """p(x) * x**k."""
        return RealPolynomial(_trim((0.0,) * k + self.coeffs))

    def scaled(self, s: float) -> "RealPolynomial":
        return RealPolynomial(_trim(tuple(s * c for c in self.coeffs)))

    def __add__(self, other: "RealPolynomial") -> "RealPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0.0,) * (n - len(self.coeffs))
        b = other.coeffs + (0.0,) * (n - len(other.coeffs))
        return RealPolynomial(_trim(tuple(x + y for x, y in zip(a, b))))

    def __mul__(self, other: "RealPolynomial") -> "RealPolynomial":
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0.0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RealPolynomial(_trim(tuple(out)))


def _trim(coeffs: tuple) -> tuple:
    n = len(coeffs)
    while n > 1 and coeffs[n - 1] == 0.0:
        n -= 1
    return coeffs[:n]


# ---------------------------------------------------------------------------
# shared evaluation record
# ---------------------------------------------------------------------------

@dataclass
class EvalOutcome:
    """Result of a function evaluation with convergence metadata.

    u_prime is None when the method does not produce the derivative.
    flags may contain "shifted_a", "near_integer_b", "truncated" and
    "negative_axis_z".
    """

    u: complex
    u_prime: complex | None = None
    terms_used: int = 0
    est_abs_error: float = 0.0
    method: str = ""
    flags: set = field(default_factory=set)
