"""Command-line front end.

Subcommands:

* ``eval``   - point evaluation of U(a,b,z) (and U' when available) with
               method auto-selection.
* ``table2`` - the b -> 0 stress table: relative residuals of the identity
               U(a-1,b,z) = (a-b+z) U - z U' at a = 0.2, b = 10^{-2k}.
* ``grid``   - CSV error grids for the convergent method (fixed coefficient
               count, or coefficients needed to reach a target accuracy).
* ``probe``  - backward-recursion minimal-solution probe.
* ``gcheck`` - series vs quadrature cross-check of the G function.

Exit codes: 0 ok, 1 usage error, 2 domain error, 3 accuracy/convergence
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from dataclasses import dataclass

from .numcore import ConvergenceError, DomainError
from . import gammakit, powerseries, convergent
from . import _in_convergent_domain, kummer_u, select_method

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_ACCURACY = 3

_TABLE2_A = 0.2
_TABLE2_Z = (complex(-0.5, -0.1), complex(1.0, 1.0))
_TABLE2_TOL = 5e-14


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class GridSpec:
    """Real (a, z) grid for the convergent-method error maps."""

    b: float
    a_min: float
    a_max: float
    a_steps: int
    z_min: float
    z_max: float
    z_steps: int
    n_terms: int = 20
    target_tol: float = 1e-14

    def __post_init__(self):
        if self.a_steps < 2 or self.z_steps < 2:
            raise DomainError("steps must be >= 2")
        if not (self.a_min < self.a_max and self.z_min < self.z_max):
            raise DomainError("ranges must be ordered")
        if self.n_terms < 1:
            raise DomainError("n_terms must be >= 1")
        if not (0.0 < self.target_tol <= 1e-6):
            raise DomainError("target_tol must lie in (0, 1e-6]")
        if not (0.05 <= self.b <= 0.95):
            raise DomainError("grid b must lie in [0.05, 0.95]")

    def a_values(self):
        d = (self.a_max - self.a_min) / (self.a_steps - 1)
        return [self.a_min + i * d for i in range(self.a_steps)]

    def z_values(self):
        d = (self.z_max - self.z_min) / (self.z_steps - 1)
        return [self.z_min + i * d for i in range(self.z_steps)]


@dataclass(frozen=True)
class ReportRow:
    a: float
    z: float
    rel_err: float
    terms_used: int
    method: str


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise DomainError("expected re or re,im")


def cmd_eval(args) -> int:
    out = kummer_u(args.a, args.b, _parse_complex(args.z), method=args.method,
                   terms=args.terms, tol=args.tol)
    if args.json:
        rec = {
            "u_re": out.u.real,
            "u_im": out.u.imag,
            "up_re": out.u_prime.real if out.u_prime is not None else None,
            "up_im": out.u_prime.imag if out.u_prime is not None else None,
            "terms": out.terms_used,
            "est_err": out.est_abs_error,
            "method": out.method,
        }
        print(json.dumps(rec))
    else:
        print(f"U      = {out.u!r}")
        if out.u_prime is not None:
            print(f"U'     = {out.u_prime!r}")
        print(f"terms  = {out.terms_used}")
        print(f"est    = {out.est_abs_error!r}")
        print(f"method = {out.method}")
        if out.flags:
            print(f"flags  = {sorted(out.flags)}")
    if "truncated" in out.flags:
        return EXIT_ACCURACY
    return EXIT_OK


def table2_residuals():
    """Relative residuals of the a-lowering identity for a = 0.2,
    b = 10^{-2k}, k = 1..5, at the two reference z points."""
    rows = []
    for k in range(1, 6):
        b = 10.0 ** (-2 * k)
        cells = []
        for z in _TABLE2_Z:
            out = powerseries.eval_u(powerseries.KummerInput(a=_TABLE2_A, b=b, z=z))
            down = powerseries.eval_u(
                powerseries.KummerInput(a=_TABLE2_A - 1.0, b=b, z=z))
            lhs = powerseries.shift_a_down(_TABLE2_A, b, z, out.u, out.u_prime)
            cells.append(abs(lhs - down.u) / abs(down.u))
        rows.append((k, cells[0], cells[1]))
    return rows


def cmd_table2(_args) -> int:
    rows = table2_residuals()
    print(f"relative residuals of U(a-1,b,z) = (a-b+z)U - zU', a = {_TABLE2_A}")
    print(f"{'k':>3}  {'z = -0.5-0.1i':>14}  {'z = 1+i':>14}")
    worst = 0.0
    for k, r1, r2 in rows:
        print(f"{k:>3}  {r1:>14.2e}  {r2:>14.2e}")
        worst = max(worst, r1, r2)
    print(f"max residual: {worst:.2e}  (threshold {_TABLE2_TOL:.0e})")
    return EXIT_OK if worst <= _TABLE2_TOL else EXIT_ACCURACY


def grid_rows(spec: GridSpec, mode: str):
    """Compute the in-region rows of the requested error grid.

    Cells outside the advertised region of the convergent method are
    omitted.  Each cell's reference is computed once: the power series where
    select_method picks it, otherwise the regularised-M consistency proxy
    with the direct 1F1 sum.  fixed_terms reports the error at n_terms
    coefficients; terms_needed reports the smallest coefficient count in
    2..n_terms reaching target_tol (n_terms + 1 marks 'not reached' within
    the search budget).
    """
    fixed = mode == "fixed_terms"
    counts = (spec.n_terms,) if fixed else range(2, spec.n_terms + 1)
    b = spec.b
    rows = []
    for a in spec.a_values():
        coeffs = None
        for z in spec.z_values():
            if not _in_convergent_domain(a, b, z):
                continue
            u_ref = select_method(a, b, z) == "power"
            if coeffs is None:
                coeffs = convergent.forward_coeffs(a, b, max(spec.n_terms, 2))
            if u_ref:
                ref = powerseries.eval_u(powerseries.KummerInput(a=a, b=b, z=z)).u
            else:
                ref = powerseries.kummer_m_direct(a, b, z) * gammakit.recip_gamma(b)
            err = math.inf
            used = spec.n_terms + 1
            for n in counts:
                if u_ref:
                    val = convergent.u_bessel_convergent(a, b, z, n=n, coeffs=coeffs).u
                else:
                    val = convergent.m_bessel_convergent(a, b, z, n=n, coeffs=coeffs)
                err = abs(val - ref) / abs(ref)
                if fixed or err <= spec.target_tol:
                    used = n
                    break
            rows.append(ReportRow(a=a, z=z, rel_err=err, terms_used=used,
                                  method="convergent"))
    return rows


def write_grid_csv(rows, out_path: str):
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "z", "rel_err", "terms_used", "method"])
        for r in rows:
            w.writerow([repr(r.a), repr(r.z), repr(r.rel_err),
                        r.terms_used, r.method])


def read_grid_csv(path: str):
    out = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != ["a", "z", "rel_err", "terms_used", "method"]:
            raise DomainError("unexpected CSV header")
        for rec in rd:
            out.append(ReportRow(a=float(rec[0]), z=float(rec[1]),
                                 rel_err=float(rec[2]), terms_used=int(rec[3]),
                                 method=rec[4]))
    return out


def cmd_grid(args) -> int:
    spec = GridSpec(b=args.b, a_min=args.a_min, a_max=args.a_max,
                    a_steps=args.a_steps, z_min=args.z_min, z_max=args.z_max,
                    z_steps=args.z_steps, n_terms=args.n_terms,
                    target_tol=args.target_tol)
    rows = grid_rows(spec, args.mode)
    write_grid_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_probe(args) -> int:
    rng = random.Random(args.seed_rng)
    seeds = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(args.seeds)]
    rep = convergent.backward_probe(args.a, args.b, args.k_start, seeds)
    print(f"k_start                 = {rep.k_start}")
    print(f"seed_count              = {rep.seed_count}")
    print(f"ratio_alpha             = {rep.ratio_alpha!r}")
    print(f"ratio_beta              = {rep.ratio_beta!r}")
    print(f"seed_spread             = {rep.seed_spread!r}")
    print(f"matches_initial_values  = {rep.matches_initial_values}")
    return EXIT_OK


def cmd_gcheck(args) -> int:
    spec = gammakit.QuadratureSpec(radius=args.radius, nodes=args.nodes)
    gs = gammakit.g_series(args.a, args.b)
    gq = gammakit.g_quadrature(args.a, args.b, spec)
    diff = abs(gs - gq)
    print(f"g_series     = {gs!r}")
    print(f"g_quadrature = {gq!r}")
    print(f"|difference| = {diff!r}")
    return EXIT_OK if diff <= 1e-12 else EXIT_ACCURACY


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="kummeru",
                description="Kummer function U(a,b,z) for small arguments")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate U(a,b,z)")
    pe.add_argument("--a", type=float, required=True)
    pe.add_argument("--b", type=float, required=True)
    pe.add_argument("--z", type=str, required=True, metavar="RE[,IM]")
    pe.add_argument("--method", choices=["auto", "power", "slater", "convergent"],
                    default="auto")
    pe.add_argument("--terms", type=int, default=None)
    pe.add_argument("--tol", type=float, default=1e-16)
    pe.add_argument("--json", action="store_true")
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("table2", help="b->0 residual table")
    pt.set_defaults(func=cmd_table2)

    pg = sub.add_parser("grid", help="error-grid CSV for the convergent method")
    pg.add_argument("--b", type=float, required=True)
    pg.add_argument("--a-min", type=float, required=True)
    pg.add_argument("--a-max", type=float, required=True)
    pg.add_argument("--a-steps", type=int, required=True)
    pg.add_argument("--z-min", type=float, required=True)
    pg.add_argument("--z-max", type=float, required=True)
    pg.add_argument("--z-steps", type=int, required=True)
    pg.add_argument("--n-terms", type=int, default=20)
    pg.add_argument("--target-tol", type=float, default=1e-14)
    pg.add_argument("--mode", choices=["fixed_terms", "terms_needed"],
                    default="fixed_terms")
    pg.add_argument("--out", type=str, required=True)
    pg.set_defaults(func=cmd_grid)

    pp = sub.add_parser("probe", help="backward-recursion probe")
    pp.add_argument("--a", type=float, required=True)
    pp.add_argument("--b", type=float, required=True)
    pp.add_argument("--k-start", type=int, required=True)
    pp.add_argument("--seeds", type=int, default=5)
    pp.add_argument("--seed-rng", type=int, default=20240101)
    pp.set_defaults(func=cmd_probe)

    pc = sub.add_parser("gcheck", help="G-function series vs quadrature")
    pc.add_argument("--a", type=float, required=True)
    pc.add_argument("--b", type=float, required=True)
    pc.add_argument("--radius", type=float, default=1.0)
    pc.add_argument("--nodes", type=int, default=64)
    pc.set_defaults(func=cmd_gcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_ACCURACY


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
