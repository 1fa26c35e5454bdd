"""Outside-in tracer for the traced benchmark run.

The tracer wraps public kummeru functions from outside: it replaces the
function object under every name that binds it in every loaded kummeru
module, so calls made through ``from .gammakit import recip_gamma``, through
a module attribute (``powerseries.eval_u`` in cli) and through an import
inside a function body (``bessel_i``) all pass through the wrapper.

Each wrapped call records a span (name, start, end, parent, request id) in
flat in-memory arrays; spans are written out once, at the end.  A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (module, function) pairs that get spans.
TRACED = (
    ("numcore", "phi1"),
    ("gammakit", "recip_gamma"), ("gammakit", "gamma_fn"),
    ("gammakit", "g_resolve"), ("gammakit", "g_series"),
    ("gammakit", "g_quadrature"),
    ("besselkit", "bessel_i"), ("besselkit", "bessel_k"),
    ("powerseries", "eval_u"), ("powerseries", "w0"),
    ("powerseries", "raise_b"), ("powerseries", "kummer_m_direct"),
    ("convergent", "forward_coeffs"), ("convergent", "eval_AB"),
    ("convergent", "u_bessel_convergent"),
    ("convergent", "m_bessel_convergent"),
    ("slater", "slater_coeffs"), ("slater", "slater_u"), ("slater", "slater_m"),
    ("cli", "grid_rows"),
)

# RealPolynomial methods counted (not spanned) as numcore.RealPolynomial.ops.
POLY_OPS = ("__call__", "__add__", "__mul__", "derivative", "antiderivative",
            "divide_by_var", "shift_up", "scaled")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _count_work(tracer, name, args, kwargs, result):
    """Work counts taken at the layer boundary (from arguments and result)."""
    c = tracer.counts
    if name == "gammakit.g_quadrature":
        spec = _arg(args, kwargs, 2, "spec")
        c["gammakit.g_quadrature.nodes"] += spec.nodes if spec is not None else 64
    elif name == "besselkit.bessel_k":
        w = complex(_arg(args, kwargs, 1, "w"))
        if abs(w) > 1.0 or _arg(args, kwargs, 2, "nodes") is not None:
            c["besselkit.bessel_k.quad_calls"] += 1
    elif name == "powerseries.eval_u":
        c["powerseries.eval_u.terms"] += result.terms_used
    elif name == "convergent.forward_coeffs":
        c["convergent.forward_coeffs.terms"] += _arg(args, kwargs, 2, "n")
    elif name == "slater.slater_coeffs":
        tracer.slater_keys.add((float(_arg(args, kwargs, 0, "b")),
                                _arg(args, kwargs, 1, "K")))
    elif name == "cli.grid_rows":
        c["cli.grid_rows.cells"] += len(result)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_req = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.failed = Counter()
        self.counts = Counter()
        self.slater_keys: set = set()
        self.request = -1
        self._stack: list = []
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        s_name, s_parent, s_req = self.s_name, self.s_parent, self.s_req
        s_start, s_end = self.s_start, self.s_end

        def traced(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_req.append(self.request)
            s_end.append(0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[nid] += 1
                raise
            finally:
                s_end[idx] = clock()
                stack.pop()
            _count_work(self, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every TRACED function and count RealPolynomial methods."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "kummeru" or k.startswith("kummeru."))]
        for modname, fname in TRACED:
            orig = getattr(sys.modules["kummeru." + modname], fname)
            wrapper = self.wrap(f"{modname}.{fname}", orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))
        poly = sys.modules["kummeru.numcore"].RealPolynomial
        for meth in POLY_OPS:
            orig = poly.__dict__[meth]
            setattr(poly, meth, self._counting(orig))
            self._undo.append((poly, meth, orig))

    def _counting(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts["numcore.RealPolynomial.ops"] += 1
            return fn(*args, **kwargs)
        return counted

    def uninstall(self):
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def write(self, path: str):
        """One JSON header line (names, span count, field order), then
        the raw span arrays, one field after another."""
        header = {"names": self.names, "n": len(self.s_name),
                  "fields": [f for f, _ in _FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                getattr(self, field).tofile(fh)

    def layer_metrics(self) -> dict:
        """calls, self_s and failed per traced function, plus the counts."""
        selfs = self_times(self.s_start, self.s_end, self.s_parent)
        calls = Counter()
        self_ns = Counter()
        for n, st in zip(self.s_name, selfs):
            calls[n] += 1
            self_ns[n] += st
        out = {}
        for modname, fname in TRACED:
            name = f"{modname}.{fname}"
            nid = self.name_id(name)
            out[name + ".calls"] = calls[nid]
            out[name + ".self_s"] = self_ns[nid] / 1e9
            out[name + ".failed"] = self.failed[nid]
        for key in ("gammakit.g_quadrature.nodes", "besselkit.bessel_k.quad_calls",
                    "powerseries.eval_u.terms", "convergent.forward_coeffs.terms",
                    "cli.grid_rows.cells", "numcore.RealPolynomial.ops"):
            out[key] = self.counts[key]
        out["slater.slater_coeffs.distinct_keys"] = len(self.slater_keys)
        out["cli.grid_rows.ref_evals_per_cell"] = (
            self._ref_evals_in_grid() / out["cli.grid_rows.cells"]
            if out["cli.grid_rows.cells"] else 0.0)
        return out

    def _ref_evals_in_grid(self) -> int:
        """Reference evaluations (eval_u, kummer_m_direct) made directly
        under a grid_rows span."""
        grid = self.name_id("cli.grid_rows")
        refs = {self.name_id("powerseries.eval_u"),
                self.name_id("powerseries.kummer_m_direct")}
        names = self.s_name
        return sum(1 for n, p in zip(names, self.s_parent)
                   if n in refs and p >= 0 and names[p] == grid)


_FIELDS = (("s_name", "i"), ("s_parent", "i"), ("s_req", "i"),
           ("s_start", "q"), ("s_end", "q"))


def self_times(starts, ends, parents) -> list:
    """Self time of each span: its duration minus the union of its direct
    children's intervals, each clipped to the parent's interval."""
    children: dict = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0
        cur = s
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo = max(starts[c], cur)
            hi = min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                cur = hi
        out.append(e - s - covered)
    return out
