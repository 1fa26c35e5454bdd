import importlib.util
import os
import sys

import pytest

from kummeru import (DomainError, KummerInput, cli, eval_u, kummer_u, numcore,
                     slater_u, u_bessel_convergent)

_BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(_BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


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

    def test_negative_real_axis_off_power_route(self):
        # was "use the power-series method there", which does not cover a = 5
        with pytest.raises(DomainError, match="no method covers"):
            kummer_u(5.0, 0.4, -0.5)

    def test_series_budget_from_environment(self):
        assert "truncated" in kummer_u(0.2, 0.3, 1 + 1j, terms=3).flags
        assert "truncated" not in kummer_u(0.2, 0.3, 1 + 1j).flags

    @pytest.mark.parametrize("method,a", [("power", 0.2), ("convergent", 5.0),
                                          ("slater", 60.0)])
    def test_zero_terms_rejected(self, method, a):
        with pytest.raises(DomainError):
            kummer_u(a, 0.4, 0.5, method=method, terms=0)

    def test_non_real_off_power_route(self):
        for a, b, z, method in ((3 + 1j, 0.3, 0.5, "auto"),
                                (0.3, 0.2 + 0.1j, 5.0, "auto"),
                                (5 + 1j, 0.4, 0.5, "convergent"),
                                (60 + 1j, 0.3, 0.5, "slater")):
            with pytest.raises(DomainError, match="non-real a or b"):
                kummer_u(a, b, z, method=method)
        assert kummer_u(5 + 0j, 0.4 + 0j, 0.5).u == kummer_u(5.0, 0.4, 0.5).u

    def test_small_b_convergent_point(self):
        mpmath = pytest.importorskip("mpmath")
        out = kummer_u(5.0, 0.05, 1.0)
        with mpmath.workdps(40):
            ref = float(mpmath.hyperu(5.0, 0.05, 1.0))
        assert out.method == "convergent"
        assert abs(out.u - ref) <= 5e-12 * abs(ref)

    @pytest.mark.parametrize("a,b", [(-2.4, 0.3), (2.45, -0.3)])
    def test_former_g_resolve_holes(self, a, b):
        mpmath = pytest.importorskip("mpmath")
        ref = float(mpmath.hyperu(a, b, 0.5))
        assert abs(kummer_u(a, b, 0.5).u - ref) <= 1e-12 * abs(ref)


def test_names_the_benchmark_uses_resolve():
    """The benchmark wraps these functions by name, unpacks slater_u and
    calls the library through each workload's caller."""
    tracer = _load_bench("tracer")
    for modname, fname in tracer.TRACED:
        module = importlib.import_module("kummeru." + modname)
        assert callable(getattr(module, fname)), (modname, fname)
    for meth in tracer.POLY_OPS:
        assert meth in vars(numcore.RealPolynomial), meth
    assert callable(cli.select_method)
    result = slater_u(60.0, 0.3, 0.5)
    assert isinstance(result, tuple) and len(result) == 2
    workloads = _load_bench("workloads")
    for w in workloads.WORKLOADS:
        workloads.make_caller(w)(next(workloads.stream(w, 1)))
