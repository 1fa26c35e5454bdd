"""Tests of the benchmark itself (not of kummeru):

    python3 -m pytest bench/selftest.py -q

Kept out of the repository's default test collection (the file name does
not match test_*.py) because the oracle needs mpmath.
"""

from __future__ import annotations

import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import workloads as wl  # noqa: E402

mp = pytest.importorskip("mpmath")
import oracle  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

N = 3000


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_determines_inputs(workload):
    assert wl.take(workload, 7, 200) == wl.take(workload, 7, 200)
    assert wl.take(workload, 7, 200) != wl.take(workload, 8, 200)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_never_repeat(workload):
    items = wl.take(workload, 3, N)
    keys = [(i.fn, i.a, i.b, i.z) if isinstance(i, wl.Point) else i for i in items]
    assert len(set(keys)) == len(keys)


def test_points_lie_in_their_route_domain():
    from kummeru.cli import select_method
    routes = {"power": 0, "convergent": 0, "slater": 0}
    for p in wl.take("points_mixed", 5, N):
        routes[p.route] += 1
        assert select_method(p.a, p.b, p.z) == p.route
        if p.route == "power":
            assert abs(p.a) <= wl.POWER_A and 0 < abs(p.z) <= 1.5
            assert min(wl._pole_distance(p.a), wl._pole_distance(
                p.a - p.b + 1.0)) >= wl.POLE_DISTANCE
            base = p.b if abs(p.b) <= 0.5 else p.b - round(p.b)
            assert abs(base) <= 0.5 and -0.5 <= p.b <= 3.5
        elif p.route == "convergent":
            assert 2.5 < p.a <= 20.0 and 0.05 <= p.b <= 0.95
            assert 0 < abs(p.a * p.z) <= 10.0
        else:
            assert wl.SLATER_A[0] <= p.a <= wl.SLATER_A[1]
            assert p.z.imag == 0.0 and p.a * p.z.real > 10.0
    shares = {k: v / N for k, v in routes.items()}
    assert abs(shares["power"] - 0.7) < 0.05
    assert abs(shares["convergent"] - 0.2) < 0.05
    assert abs(shares["slater"] - 0.1) < 0.05


def test_slater_scan_domain():
    items = wl.take("slater_scan", 5, N)
    assert {p.fn for p in items} == {"slater_u", "slater_m"}
    n_u = sum(p.fn == "slater_u" for p in items)
    assert abs((len(items) - n_u) / n_u - 1 / wl.SLATER_M_EVERY) < 0.01
    for p in items:
        assert p.b in wl.SLATER_SCAN_B
        assert wl.SLATER_A[0] <= p.a <= wl.SLATER_A[1]
        assert p.z.imag == 0.0 and p.a * p.z.real > 10.0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_probes_are_fixed_and_outside_the_workload_domain(workload):
    from kummeru.cli import select_method
    items = wl.probes(workload)
    assert items == wl.probes(workload) and len(items) == wl.PROBES
    for p in items:
        if isinstance(p, wl.GridRequest):
            assert p.band == "low"
            assert wl.PROBE_GRID_LOW_A[0] <= p.a_max <= wl.PROBE_GRID_LOW_A[1]
        elif p.route == "power":
            assert select_method(p.a, p.b, p.z) == "power"
            assert wl.PROBE_POWER_A[0] <= abs(p.a) <= wl.PROBE_POWER_A[1]
        else:
            assert wl.PROBE_SLATER_A[0] <= p.a <= wl.PROBE_SLATER_A[1]
            assert p.a * p.z.real > 10.0


def test_grid_requests_lie_in_the_declared_map():
    reqs = wl.take("grid_sweep", 5, 400)
    low = sum(r.band == "low" for r in reqs)
    assert 150 < low < 250
    for r in reqs:
        lo, hi = wl.GRID_LOW_A if r.band == "low" else wl.GRID_HIGH_A
        assert lo <= r.a_min < r.a_max <= hi
        assert (r.z_min, r.z_max) == wl.GRID_Z
        assert wl.GRID_B[0] <= r.b <= wl.GRID_B[1]
        assert (r.a_steps, r.z_steps) == (4, 5)  # the README's fig2 map
        assert len(oracle.grid_cells(r)) == r.a_steps * r.z_steps


# ---------------------------------------------------------------------------
# oracle and classifier
# ---------------------------------------------------------------------------

def _check(point):
    call = wl.make_caller("points_mixed")
    try:
        res = call(point)
    except Exception as exc:
        res = f"{type(exc).__name__}: {exc}"
    return oracle.classify_point(point, res, oracle.ref_point(
        point.fn, point.a, point.b, point.z))


@pytest.mark.parametrize("point, reason", [
    (wl.Point("u", "power", -2.4, 0.3, complex(0.5)),
     "raised DomainError: G argument too large for quadrature fallback"),
    (wl.Point("slater_u", "slater", 200.0, 0.3, complex(0.25)),
     "raised DomainError: gamma pole at"),
    (wl.Point("slater_u", "slater", 171.0, 0.3, complex(0.4)),
     "silent underflow"),
    # a - b + 1 is 1e-4 from the pole at -2
    (wl.Point("u", "power", -1.6898858357130058, 1.3101269143744545,
              complex(0.04583044751759495, -0.38477181070801253)),
     "power accuracy"),
])
def test_classifier_marks_failures(point, reason):
    v = _check(point)
    assert not v.ok and v.reason == reason


def _verdict(point, value):
    ref = oracle.ref_point(point.fn, point.a, point.b, point.z)
    return oracle.classify_point(point, value, ref)


def test_any_failure_makes_a_run_not_correct():
    import run
    p = wl.Point("u", "power", 0.2, 0.1, complex(0.5, 0.3))
    ref = oracle.ref_point(p.fn, p.a, p.b, p.z)
    good = complex(oracle.unpack(ref))
    chk = run.check([p, p], [("power", good, 1e-15),
                             ("power", good * (1 + 1e-10), 0.0)], [ref, ref])
    assert chk["calls_failed"] == 1 and chk["ok_evals"] == 1
    assert chk["reasons"] == {"power accuracy": 1}


def test_zero_and_poles_fail_on_any_route():
    conv = wl.Point("u", "convergent", 5.0, 0.4, complex(1.2, 0.3))
    assert _verdict(conv, ("convergent", 0j, 0.0)).reason == "silent underflow"
    slater = wl.Point("slater_u", "slater", 40.0, 0.3, complex(0.5))
    pole = _verdict(slater, "DomainError: gamma pole at (40.7+0j)")
    assert not pole.ok and pole.reason == "raised DomainError: gamma pole at"
    assert not _verdict(slater, ("slater", 0j, None)).ok


@pytest.mark.parametrize("point", [
    wl.Point("u", "power", 0.2, 1e-10, complex(-0.5, -0.1)),
    wl.Point("u", "power", 0.7, 0.0, complex(1.0, 1.0)),
    wl.Point("u", "convergent", 5.0, 0.4, complex(1.2, 0.3)),
    wl.Point("slater_u", "slater", 60.0, 0.3, complex(0.5)),
    wl.Point("slater_m", "slater", 60.0, 0.3, complex(0.5)),
])
def test_classifier_passes_good_points(point):
    v = _check(point)
    assert v.ok and v.rel_err < oracle.bound_for(point.route, point.a,
                                                 point.b, point.z)


def test_classifier_fails_non_finite_and_wrong_values():
    p = wl.Point("u", "power", 0.2, 0.1, complex(0.5, 0.0))
    ref = oracle.ref_point(p.fn, p.a, p.b, p.z)
    good = complex(oracle.unpack(ref))
    assert oracle.classify_point(p, ("power", good, 1e-16), ref).ok
    bad = oracle.classify_point(p, ("power", good * (1 + 1e-10), 0.0), ref)
    assert not bad.ok and bad.reason == "power accuracy" and bad.covered is False
    assert oracle.classify_point(p, ("power", complex(math.nan), 0.0),
                                 ref).reason == "non-finite"


def test_tiny_b_reference_matches_the_b0_limit():
    with mp.workdps(40):
        exact = mp.hyperu(0.7, 0, mp.mpc(0.5, 0.2))
        for b in (0.0, -0.0, 1e-300, -1e-200):
            got = oracle.unpack(oracle.ref_point("u", 0.7, b, complex(0.5, 0.2)))
            assert abs(got - exact) <= 1e-28 * abs(exact)


@pytest.mark.parametrize("a", [1.3, 13.0])
def test_grid_oracle_expansion_converges(a):
    errs = oracle.expansion_errors(a, 0.4, 0.2, 40)
    assert errs[-1] < 1e-28
    assert errs[2] > errs[10]


def _grid(req):
    """The library's cells for a request, and the oracle's reference."""
    res = wl.make_caller("grid_sweep")(req)
    return res, oracle.ref_grid(req, wl.GRID_N_TERMS)


def _classify_grid(req, cells, ref):
    return oracle.classify_grid(req, cells, ref, wl.GRID_TOL, wl.GRID_N_TERMS)


@pytest.mark.parametrize("band", ["low", "high"])
def test_grid_classifier(band):
    req = next(r for r in wl.take("grid_sweep", 5, 10) if r.band == band)
    res, ref = _grid(req)
    assert all(v.ok for v in _classify_grid(req, res, ref))
    n_max = wl.GRID_N_TERMS
    # an error above the target at a count within the budget
    late = tuple((a, z, n, 2 * wl.GRID_TOL) for a, z, n, _ in res)
    assert {v.reason for v in _classify_grid(req, late, ref)} == {
        "terms_used inconsistent"}
    # "not reached" with an error that did reach the target
    stalled = tuple((a, z, n_max + 1, err) for a, z, _, err in res)
    assert not any(v.ok for v in _classify_grid(req, stalled, ref))
    # one term fewer, with the error the library measured at its count:
    # caught on the cells whose exact errors at n-1 and n differ by more
    # than the bound
    short = tuple((a, z, n - 1, err) for a, z, n, err in res)
    assert "grid error" in {v.reason for v in _classify_grid(req, short, ref)}
    assert not _classify_grid(req, res[:-1], ref)[0].ok
    assert not _classify_grid(req, "DomainError: x", ref)[0].ok


@pytest.mark.parametrize("b, a, z", [
    # exact errors at 5, 6 and 7 terms: 1.3e-14, 2e-12, 9e-15
    (0.15225263473923467, 8.13705950770751, 0.2),
    # 1.4e-12, 2.1e-12, 6.1e-15
    (0.06484673562516362, 15.28858077944143, 0.25),
])
def test_grid_count_decided_by_rounding_passes(b, a, z):
    # the exact count is 7, but the library's double-precision error reads
    # below 1e-14 at 5 terms, within the convergent bound of the exact one
    req = wl.GridRequest(b, a, a + 1.0, 2, z, z + 0.05, 2, "high")
    res, ref = _grid(req)
    errs = ref[0][2]
    assert res[0][2] == 5 and errs[4] > wl.GRID_TOL and errs[6] <= wl.GRID_TOL
    assert all(v.ok for v in _classify_grid(req, res, ref))


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_self_time_on_a_synthetic_tree():
    #   0 root [0, 100]
    #   1   child [10, 30]
    #   2   child [40, 70]
    #   3     grandchild [45, 50]
    #   4   child [60, 80]   overlaps child 2
    #   5   child [90, 120]  runs past the root
    starts = [0, 10, 40, 45, 60, 90]
    ends = [100, 30, 70, 50, 80, 120]
    parents = [-1, 0, 0, 2, 0, 0]
    # root: children cover 10-30, 40-80, 90-100 -> 70
    assert self_times(starts, ends, parents) == [30, 20, 25, 5, 20, 30]


def test_tracer_wraps_every_binding_and_restores_them():
    import kummeru
    from kummeru import besselkit, cli, gammakit, powerseries
    orig = gammakit.recip_gamma
    t = Tracer()
    t.install()
    try:
        assert powerseries.recip_gamma is gammakit.recip_gamma is kummeru.recip_gamma
        assert gammakit.recip_gamma is not orig
        besselkit.bessel_i(0.3, 2.0)  # imports recip_gamma inside the call
        spec = cli.GridSpec(b=0.4, a_min=0.5, a_max=1.0, a_steps=2,
                            z_min=0.1, z_max=0.2, z_steps=2)
        cli.grid_rows(spec, "terms_needed")  # calls powerseries.eval_u
    finally:
        t.uninstall()
    assert gammakit.recip_gamma is orig and powerseries.recip_gamma is orig
    names = [t.names[n] for n in t.s_name]
    parent = {t.names[t.s_name[i]]: t.names[t.s_name[p]]
              for i, p in enumerate(t.s_parent) if p >= 0}
    assert names[0] == "besselkit.bessel_i"
    assert names[1] == "gammakit.recip_gamma" and t.s_parent[1] == 0
    assert parent["powerseries.eval_u"] == "cli.grid_rows"
    m = t.layer_metrics()
    assert m["cli.grid_rows.cells"] == 4
    assert m["cli.grid_rows.ref_evals_per_cell"] > 1
    assert m["besselkit.bessel_i.calls"] >= 1
