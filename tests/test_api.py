import importlib.util
import os

import pytest

from kummeru import (DomainError, KummerInput, cli, eval_u, kummer_u, numcore,
                     slater_u, u_bessel_convergent)

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                       "tracer.py")


class TestKummerU:
    def test_auto_routes(self):
        assert kummer_u(0.2, 1e-4, 1 + 1j).method == "power"
        assert kummer_u(5.0, 0.4, 0.5).method == "convergent"
        assert kummer_u(50.0, 0.4, 0.5).method == "slater"

    def test_matches_the_route_functions(self):
        power = kummer_u(0.5, 0.4, 0.6, method="power")
        assert power.u == eval_u(KummerInput(a=0.5, b=0.4, z=0.6)).u
        conv = kummer_u(0.5, 0.4, 0.6, method="convergent", terms=12)
        assert conv.u == u_bessel_convergent(0.5, 0.4, 0.6, n=12).u
        assert conv.terms_used == 12

    def test_slater_outcome(self):
        out = kummer_u(80.0, 0.3, 0.3, method="slater")
        val, est = slater_u(80.0, 0.3, 0.3)
        assert out.u == complex(val) and out.est_abs_error == est
        assert out.u_prime is None and out.terms_used == 4

    def test_rejections(self):
        with pytest.raises(DomainError, match="real z"):
            kummer_u(80.0, 0.3, 0.3 + 0.1j, method="slater")
        with pytest.raises(DomainError, match="unknown method"):
            kummer_u(0.2, 0.3, 0.5, method="bessel")
        with pytest.raises(DomainError, match="nonzero"):
            kummer_u(0.2, 0.3, 0)

    def test_series_budget_from_environment(self, monkeypatch):
        monkeypatch.setenv("KUMMER_MAX_TERMS", "3")
        assert "truncated" in kummer_u(0.2, 0.3, 1 + 1j).flags
        assert "truncated" not in kummer_u(0.2, 0.3, 1 + 1j, terms=200).flags
        monkeypatch.setenv("KUMMER_MAX_TERMS", "many")
        with pytest.raises(DomainError, match="KUMMER_MAX_TERMS"):
            kummer_u(0.2, 0.3, 1 + 1j)


def test_names_the_benchmark_uses_resolve():
    """The benchmark wraps these functions by name and unpacks slater_u."""
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, fname in tracer.TRACED:
        module = importlib.import_module("kummeru." + modname)
        assert callable(getattr(module, fname)), (modname, fname)
    for meth in tracer.POLY_OPS:
        assert meth in vars(numcore.RealPolynomial), meth
    assert callable(cli.select_method)
    result = slater_u(60.0, 0.3, 0.5)
    assert isinstance(result, tuple) and len(result) == 2
