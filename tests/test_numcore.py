import cmath
import math
import random

import pytest

from kummeru.numcore import RealPolynomial, StructuralError, cexpm1


def test_expm1_at_zero_and_tiny():
    assert cexpm1(0.0) == 0j
    w = 1e-12
    oracle = w + w * w / 2.0 + w ** 3 / 6.0  # truncated Taylor series
    got = cexpm1(w)
    assert abs(got - oracle) <= 1e-15 * abs(oracle)


def test_expm1_at_one():
    assert abs(cexpm1(1.0) - (math.e - 1.0)) <= 1e-15 * (math.e - 1.0)


def test_expm1_matches_direct_form_on_annulus():
    rng = random.Random(11)
    for _ in range(400):
        r = rng.uniform(0.5, 2.0)
        th = rng.uniform(-math.pi, math.pi)
        w = r * cmath.exp(1j * th)
        direct = cmath.exp(w) - 1.0
        assert abs(cexpm1(w) - direct) <= 1e-13 * max(abs(direct), 1.0)


def test_expm1_tiny_against_taylor_oracle():
    rng = random.Random(13)
    for _ in range(100):
        th = rng.uniform(-math.pi, math.pi)
        w = 1e-10 * cmath.exp(1j * th)
        oracle = w + w * w / 2.0 + w ** 3 / 6.0
        assert abs(cexpm1(w) - oracle) <= 1e-14 * abs(oracle)


class TestRealPolynomial:
    def test_calculus_examples(self):
        p = RealPolynomial.of([0, 0, 0, 1 / 6])        # z^3/6
        assert p.derivative() == RealPolynomial.of([0, 0, 0.5])
        q = RealPolynomial.of([0, 0, 1])               # z^2
        assert q.antiderivative() == RealPolynomial.of([0, 0, 0, 1 / 3])
        assert p.divide_by_var() == RealPolynomial.of([0, 0, 1 / 6])

    def test_divide_requires_zero_constant(self):
        with pytest.raises(StructuralError):
            RealPolynomial.of([1.0, 2.0]).divide_by_var()

    def test_derivative_of_antiderivative_roundtrip(self):
        rng = random.Random(3)
        for _ in range(50):
            deg = rng.randint(0, 8)
            p = RealPolynomial.of([rng.uniform(-2, 2) for _ in range(deg + 1)])
            # coefficient-wise exact: c/(i+1)*(i+1) rounds back to c
            assert p.antiderivative().derivative() == p

    def test_evaluation_at_zero_is_constant_term(self):
        p = RealPolynomial.of([2.5, -1, 4])
        assert p(0.0) == 2.5

    def test_add_mul_scale(self):
        p = RealPolynomial.of([1, 1])
        q = RealPolynomial.of([1, -1])
        assert p * q == RealPolynomial.of([1, 0, -1])
        assert p + q == RealPolynomial.of([2])
        assert p.scaled(3.0) == RealPolynomial.of([3, 3])
        assert p.shift_up(2) == RealPolynomial.of([0, 0, 1, 1])

    def test_trailing_zeros_trimmed(self):
        assert RealPolynomial.of([1, 2, 0, 0]).degree == 1
