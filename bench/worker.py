"""Child process of the benchmark: imports kummeru from the checkout's
``src`` and either measures set-up or runs one closed-loop pass.

    python3 bench/worker.py setup <workload>
    python3 bench/worker.py pass <workload> <seed> <seconds|0> <count|0> <trace 0|1> <spans path> <chunks>
    python3 bench/worker.py probe <workload>

``setup`` prints the seconds from ``import kummeru`` to the end of the
first, cold call into each route the workload uses.  ``pass`` calls the
API on the workload's stream, one call at a time, for ``seconds`` split
into timed chunks (or for exactly ``count`` inputs) and writes one
length-prefixed pickle per chunk to stdout.  ``probe`` calls the API once
on each of the workload's probes, untimed, and writes the pickled results.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import sys
import time
from array import array

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def _import_kummeru():
    sys.path.insert(0, SRC)
    import kummeru
    if not os.path.abspath(kummeru.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"kummeru imported from {kummeru.__file__}, not {SRC}")
    return kummeru


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _cold_inputs(wl, workload: str) -> list:
    """One fixed input per route the workload uses, inside its domain."""
    if workload == "grid_sweep":
        return [wl.GridRequest(b=0.4, a_min=0.5, a_max=5.0, a_steps=2,
                               z_min=0.05, z_max=0.25, z_steps=2, band="")]
    slater = [wl.Point("slater_u", "slater", 60.0, 0.3, complex(0.5)),
              wl.Point("slater_m", "slater", 60.0, 0.3, complex(0.5))]
    if workload == "slater_scan":
        return slater
    return [wl.Point("u", "power", 0.2, 1e-10, complex(-0.5, -0.1)),
            wl.Point("u", "convergent", 5.0, 0.4, complex(1.2, 0.3)),
            slater[0]]


def setup(workload: str) -> float:
    import workloads as wl
    cold = _cold_inputs(wl, workload)
    t0 = time.perf_counter()
    _import_kummeru()
    call = wl.make_caller(workload)
    for item in cold:
        call(item)
    return time.perf_counter() - t0


_ROUTES = ("power", "convergent", "slater")


class _Store:
    """Call results of a pass.  Point results go into arrays of plain
    numbers so the client adds no GC-tracked object per call and the
    collector's work stays the program's own."""

    def __init__(self):
        self.route = array("b")
        self.re = array("d")
        self.im = array("d")
        self.est = array("d")
        self.other = {}  # index -> exception text or grid cells

    def add(self, out):
        i = len(self.route)
        if isinstance(out, tuple) and out and isinstance(out[0], str):
            route, value, est = out
            self.route.append(_ROUTES.index(route))
            self.re.append(value.real)
            self.im.append(value.imag)
            self.est.append(math.nan if est is None else est)
            return
        self.route.append(-1)
        self.re.append(0.0)
        self.im.append(0.0)
        self.est.append(0.0)
        self.other[i] = out

    def results(self) -> list:
        """(route, value, est) per point, the exception text of a failed
        call, or the cells of a grid request."""
        out = []
        for i, r in enumerate(self.route):
            if r < 0:
                out.append(self.other[i])
            else:
                est = self.est[i]
                out.append((_ROUTES[r], complex(self.re[i], self.im[i]),
                            None if math.isnan(est) else est))
        return out


def run_pass(workload, seed, seconds, count, trace, spans_path, chunks, send):
    """Call the API on the stream in ``chunks`` timed chunks of
    seconds/chunks each (or on exactly ``count`` inputs), sending one record
    per chunk.  Between chunks the process waits for a line on stdin, so
    the parent controls the gap while nothing is timed; the stream and the
    program's state carry over from chunk to chunk."""
    _import_kummeru()
    import workloads as wl
    call = wl.make_caller(workload)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    items = wl.stream(workload, seed)
    clock = time.perf_counter_ns
    done = 0
    gc.collect()
    for c in range(chunks):
        if c:
            sys.stdin.readline()
        lat = array("q")
        store = _Store()
        rss0 = _rss_bytes()
        start = clock()
        deadline = start + int(seconds / chunks * 1e9)
        t1 = start
        while not count or done < count:
            item = next(items)
            if tracer is not None:
                tracer.request = done
            t0 = clock()
            try:
                out = call(item)
            except Exception as exc:  # a failed call is recorded, not fatal
                out = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            lat.append(t1 - t0)
            store.add(out)
            done += 1
            if not count and t1 >= deadline:
                break
        rec = {"n": len(lat), "wall_s": (t1 - start) / 1e9, "lat_ns": list(lat),
               "results": store.results(), "rss_start": rss0,
               "rss_end": _rss_bytes()}
        if tracer is not None and c == chunks - 1:
            tracer.uninstall()
            rec["layers"] = tracer.layer_metrics()
            rec["spans"] = len(tracer.s_name)
            tracer.write(spans_path)
        send(rec)


def _send(rec):
    data = pickle.dumps(rec, protocol=pickle.HIGHEST_PROTOCOL)
    sys.stdout.buffer.write(len(data).to_bytes(8, "little") + data)
    sys.stdout.buffer.flush()


def main(argv):
    sys.path.insert(0, BENCH)
    if argv[0] == "setup":
        print(repr(setup(argv[1])))
        return 0
    if argv[0] == "probe":
        _import_kummeru()
        import workloads as wl
        store = _Store()
        call = wl.make_caller(argv[1])
        for item in wl.probes(argv[1]):
            try:
                store.add(call(item))
            except Exception as exc:  # a failed call is recorded, not fatal
                store.add(f"{type(exc).__name__}: {exc}")
        sys.stdout.buffer.write(pickle.dumps(store.results()))
        return 0
    workload, seed = argv[1], int(argv[2])
    seconds, count, trace = float(argv[3]), int(argv[4]), argv[5] == "1"
    run_pass(workload, seed, seconds, count, trace, argv[6], int(argv[7]), _send)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
