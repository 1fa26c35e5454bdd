"""Seeded input streams for the three benchmark workloads, and the client
calls that turn one input into calls on the public kummeru API.

Generation uses only the standard library, so the streams can be built and
tested without importing kummeru.  A stream is infinite and deterministic:
item ``i`` of ``stream(workload, seed)`` is the same on every run, so a run
that stops after ``n`` items has used exactly the first ``n`` items.

Domains follow ``kummeru.cli.select_method`` and the README, less the parts
where the library is known to fail, so that every timed call must pass the
oracle:

* power      |a| <= 2, |z| <= 1.5, b = 0, tiny b, b in [-1/2, 1/2], or
             b within 1/2 of 1, 2 or 3 (the raise path); a and a-b+1 at
             least 1e-2 from a nonpositive integer;
* convergent a in (2.5, 20], b in [0.05, 0.95], 0 < |az| <= 10;
* slater     a in [30, 140], real z with az > 10.

The parts left out are probed by ``probes``: a fixed set of inputs the
report checks after the timed pass, so the known defects stay visible.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass

WORKLOADS = ("points_mixed", "grid_sweep", "slater_scan")

# Per workload, bumped whenever its generator changes, so cached oracle
# values are rebuilt.
GEN_VERSION = {"points_mixed": 2, "grid_sweep": 3, "slater_scan": 2}

POWER_SHARE = 0.70
CONVERGENT_SHARE = 0.20          # the rest of points_mixed is Slater points
POWER_A = 2.0                    # G(a, z) raises for some |a| in (2, 2.5]
POLE_DISTANCE = 1e-2             # the paired series loses 1e-16/distance
SLATER_A = (30.0, 140.0)         # U underflows the double range past a ~ 150
PROBE_POWER_A = (2.0, 2.5)
PROBE_SLATER_A = (140.0, 200.0)
PROBE_GRID_LOW_A = (2.0, 2.5)
SLATER_ZSQ_MAX = 1.0
SLATER_SCAN_B = (-0.5, 0.3, 0.8, 1.6)
SLATER_M_EVERY = 4               # slater_m on every 4th slater_scan point
GRID_B = (0.05, 0.95)
GRID_LOW_A = (0.1, POWER_A)
GRID_HIGH_A = (2.5, 20.0)
# The shape of the README's terms_needed map (fig2): 4 a-steps by 5
# z-steps over z in [0.05, 0.25]; b and the a range are seeded.
GRID_A_STEPS = 4
GRID_Z_STEPS = 5
GRID_Z = (0.05, 0.25)
GRID_TOL = 1e-14                 # the CLI default target
GRID_N_TERMS = 20


@dataclass(frozen=True)
class Point:
    """One evaluation: ``fn`` is the API entry the client calls.

    fn is "u" (route chosen by cli.select_method), "slater_u" or "slater_m".
    ``route`` is the route the generator aimed at."""

    fn: str
    route: str
    a: float
    b: float
    z: complex


@dataclass(frozen=True)
class GridRequest:
    """One ``kummeru grid --mode terms_needed`` request."""

    b: float
    a_min: float
    a_max: float
    a_steps: int
    z_min: float
    z_max: float
    z_steps: int
    band: str  # "low" (power-series reference) or "high" (M proxy)


def _pole_distance(x: float) -> float:
    """Distance from x to the nearest nonpositive integer."""
    return abs(x - min(0, round(x)))


def _power_point(rng: random.Random, a_range=(0.0, POWER_A)) -> Point:
    """A power-route point with |a| in a_range; a and a-b+1 stay
    POLE_DISTANCE from the poles unless a_range is a probe range."""
    a = math.copysign(rng.uniform(*a_range), rng.random() - 0.5)
    kind = rng.random()
    if kind < 0.15:
        b = 0.0
    elif kind < 0.40:
        b = math.copysign(10.0 ** rng.uniform(-300.0, -1.0), rng.random() - 0.5)
    elif kind < 0.75:
        b = rng.uniform(-0.5, 0.5)
    else:
        b = rng.uniform(0.5, 3.5)
    r = rng.uniform(0.05, 1.5)
    z = cmath.rect(r, rng.uniform(-math.pi, math.pi))
    if a_range[1] <= POWER_A and min(_pole_distance(a), _pole_distance(
            a - b + 1.0)) < POLE_DISTANCE:
        return _power_point(rng, a_range)
    return Point("u", "power", a, b, z)


def _convergent_point(rng: random.Random) -> Point:
    a = max(math.exp(rng.uniform(math.log(2.5), math.log(20.0))),
            math.nextafter(2.5, 3.0))  # |a| <= 2.5 would select the power route
    b = rng.uniform(0.05, 0.95)
    r = rng.uniform(0.05, 10.0 / a)
    if rng.random() < 0.5:
        z = complex(r, 0.0)
    else:
        z = cmath.rect(r, rng.uniform(-0.9 * math.pi, 0.9 * math.pi))
    return Point("u", "convergent", a, b, z)


def _slater_args(rng: random.Random, a_range=SLATER_A):
    a = rng.uniform(*a_range)
    zsq = rng.uniform(10.0 / a, SLATER_ZSQ_MAX)
    return a, zsq


def _points_mixed(rng: random.Random):
    while True:
        x = rng.random()
        if x < POWER_SHARE:
            yield _power_point(rng)
        elif x < POWER_SHARE + CONVERGENT_SHARE:
            yield _convergent_point(rng)
        else:
            a, zsq = _slater_args(rng)
            yield Point("u", "slater", a, rng.uniform(-1.0, 2.0), complex(zsq, 0.0))


def _slater_scan(rng: random.Random):
    for i in itertools.count():
        a, zsq = _slater_args(rng)
        b = rng.choice(SLATER_SCAN_B)
        yield Point("slater_u", "slater", a, b, complex(zsq, 0.0))
        if i % SLATER_M_EVERY == SLATER_M_EVERY - 1:
            yield Point("slater_m", "slater", a, b, complex(zsq, 0.0))


def _grid_request(rng: random.Random, band: str, a_range,
                  a1: float | None = None) -> GridRequest:
    lo, hi = a_range
    a0 = rng.uniform(lo, hi - 0.2)
    if a1 is None:
        a1 = rng.uniform(a0 + 0.1, hi)
    return GridRequest(b=rng.uniform(*GRID_B), a_min=a0, a_max=a1,
                       a_steps=GRID_A_STEPS, z_min=GRID_Z[0],
                       z_max=GRID_Z[1], z_steps=GRID_Z_STEPS, band=band)


def _grid_sweep(rng: random.Random):
    while True:
        band = "low" if rng.random() < 0.5 else "high"
        yield _grid_request(rng, band, GRID_LOW_A if band == "low" else GRID_HIGH_A)


_GENERATORS = {"points_mixed": _points_mixed, "grid_sweep": _grid_sweep,
               "slater_scan": _slater_scan}


def stream(workload: str, seed: int):
    """The infinite, deterministic input stream of a workload."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{GEN_VERSION[workload]}")
    return _GENERATORS[workload](rng)


def take(workload: str, seed: int, n: int) -> list:
    return list(itertools.islice(stream(workload, seed), n))


PROBES = 100  # inputs per probe set (grid: requests)


def probes(workload: str) -> list:
    """A fixed set of inputs from the parts of the documented domains that the
    workload leaves out because the library fails there: power points with
    |a| in (2, 2.5] (the g_resolve hole) and Slater points with a in
    (140, 200] (the underflow past a ~ 150); for grid_sweep, low-band
    requests whose a range ends in (2, 2.5].  Checked untimed."""
    rng = random.Random(f"probes:{workload}:{GEN_VERSION[workload]}")
    out = []
    for i in range(PROBES):
        if workload == "grid_sweep":
            a1 = rng.uniform(*PROBE_GRID_LOW_A)
            out.append(_grid_request(rng, "low", (GRID_LOW_A[0], a1), a1))
            continue
        a, zsq = _slater_args(rng, PROBE_SLATER_A)
        if workload == "slater_scan":
            b = rng.choice(SLATER_SCAN_B)
            out.append(Point("slater_m" if i % SLATER_M_EVERY == SLATER_M_EVERY - 1
                             else "slater_u", "slater", a, b, complex(zsq, 0.0)))
        elif i % 2:
            out.append(Point("u", "slater", a, rng.uniform(-1.0, 2.0), complex(zsq, 0.0)))
        else:
            out.append(_power_point(rng, PROBE_POWER_A))
    return out


# ---------------------------------------------------------------------------
# the client: one input -> calls on the public API
# ---------------------------------------------------------------------------

def make_caller(workload: str):
    """Return call(item) for a workload.  The result is a tuple of plain
    values, built inside the call so the timed section includes consuming
    it:

    * points: (route, value, est_abs_error)
    * grid:   ((a, z, terms_used, rel_err), ...) one entry per cell
    """
    from kummeru import cli, convergent, powerseries, slater

    def call_point(p: Point):
        if p.fn == "slater_u":
            val, est = slater.slater_u(p.a, p.b, p.z.real)
            return ("slater", complex(val), est)
        if p.fn == "slater_m":
            return ("slater", complex(slater.slater_m(p.a, p.b, p.z.real)), None)
        route = cli.select_method(p.a, p.b, p.z)
        if route == "power":
            out = powerseries.eval_u(powerseries.KummerInput(a=p.a, b=p.b, z=p.z))
        elif route == "convergent":
            out = convergent.u_bessel_convergent(p.a, p.b, p.z)
        else:
            val, est = slater.slater_u(p.a, p.b, p.z.real)
            return ("slater", complex(val), est)
        return (route, out.u, out.est_abs_error)

    def call_grid(r: GridRequest):
        spec = cli.GridSpec(b=r.b, a_min=r.a_min, a_max=r.a_max,
                            a_steps=r.a_steps, z_min=r.z_min, z_max=r.z_max,
                            z_steps=r.z_steps, n_terms=GRID_N_TERMS,
                            target_tol=GRID_TOL)
        return tuple((row.a, row.z, row.terms_used, row.rel_err)
                     for row in cli.grid_rows(spec, "terms_needed"))

    return call_grid if workload == "grid_sweep" else call_point
