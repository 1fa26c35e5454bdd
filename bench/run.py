"""kummeru benchmark: one command per workload.

    python3 bench/run.py --workload points_mixed --seed 1 --seconds 6 --trace 0

Run from the root of a checkout.  The load is one single-threaded client
in a closed loop (each call waits for the previous one; no queue, so no
layer has a waiting time).  Calls run in a fresh child interpreter
(bench/worker.py) that imports kummeru from ``src``; this process builds
the mpmath references (cached per seed under .bench_run/), checks every
output, prints a report, and prints one JSON object as the last line.

--trace 0  end-to-end metrics from an untraced timed pass;
--trace 1  per-layer metrics: an untraced pass for --seconds, then a traced
           pass over the same inputs in another fresh child; the tracer
           overhead is the difference of their wall times.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_run")
sys.path.insert(0, BENCH)

import workloads as wl  # noqa: E402

# The timed section is split into CHUNKS chunks with a gap of GAP_S
# seconds of wall time between chunks, so the timed calls are spread over
# the whole run: on a shared host the speed can change for seconds at a
# time, and one short stretch may fall entirely into a slow phase.  Each
# gap starts SETUP_PER_GAP set-up probes, so set-up is sampled over the
# same stretch; the rest of the gap is idle.  Checking is done after the
# last chunk, so the gaps are the same whether the reference cache is warm
# or cold.
CHUNKS = 12
GAP_S = 1.0
SETUP_PER_GAP = 2
# Tail percentile per workload, fixed so that parent and change compare the
# same percentile even when a faster program takes more samples: the
# highest of 95 / 97 / 98 / 99 / 99.5 / 99.9 that leaves at least 10
# samples beyond it at the seed commit's speed, except where the samples
# past it are too few or too mixed to repeat.  points_mixed stops at p99.5:
# past it the tail is a thin set of fresh-radius g_quadrature fallbacks
# whose count varies with the seed (p99.9 spread 0.55 of its median over
# ten seeds).  slater_scan calls all cost about the same, and past p98 its
# tail is set by host pauses (same-seed runs differ by more than 2x at
# p99.9), so it stops at p98.
TAIL_PCT = {"points_mixed": 99.5, "grid_sweep": 95.0, "slater_scan": 98.0}
ORACLE_VERSION = 4
ORACLE_PROCS = 2


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _worker(args, timeout=170) -> bytes:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                           *map(str, args)], cwd=ROOT, capture_output=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.decode(errors="replace")[-2000:])
    return proc.stdout


def setup_probe(workload: str) -> float:
    """Seconds of one fresh interpreter's import and cold route calls."""
    return float(_worker(["setup", workload]))


def run_pass(workload, seed, seconds, count, trace, chunks=1, between=None) -> dict:
    """One pass in a fresh worker, merged over its chunks; ``between()``
    runs after each chunk but the last, while the worker waits."""
    spans = os.path.join(WORK, f"spans-{workload}.bin")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "pass", workload,
           str(seed), str(seconds), str(count), str(int(trace)), spans,
           str(chunks)]
    recs = []
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            for c in range(chunks):
                head = proc.stdout.read(8)
                if len(head) < 8:
                    raise RuntimeError(proc.stderr.read().decode(errors="replace")[-2000:])
                # written by our own worker
                recs.append(pickle.loads(proc.stdout.read(int.from_bytes(head, "little"))))
                if c < chunks - 1:
                    if between is not None:
                        between()
                    proc.stdin.write(b"go\n")
                    proc.stdin.flush()
            proc.stdin.close()
            if proc.wait(timeout=60) != 0:
                raise RuntimeError(proc.stderr.read().decode(errors="replace")[-2000:])
        finally:
            if proc.poll() is None:
                proc.kill()
    merged = dict(recs[-1])
    merged["n"] = sum(r["n"] for r in recs)
    merged["wall_s"] = sum(r["wall_s"] for r in recs)
    merged["lat_ns"] = [x for r in recs for x in r["lat_ns"]]
    merged["results"] = [x for r in recs for x in r["results"]]
    merged["rss_growth"] = recs[-1]["rss_end"] - recs[0]["rss_start"]
    return merged


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _reference(item):
    import oracle
    if isinstance(item, wl.GridRequest):
        return oracle.ref_grid(item, wl.GRID_N_TERMS)
    return oracle.ref_point(item.fn, item.a, item.b, item.z)


def references(name: str, items: list) -> list:
    """References for ``items``, a prefix of what the cache file ``name``
    holds or extends it.  Missing ones are computed in ORACLE_PROCS
    processes, only after the timed pass has ended."""
    path = os.path.join(WORK, f"oracle-{name}-o{ORACLE_VERSION}.pkl")
    refs = []
    if os.path.exists(path):
        with open(path, "rb") as fh:
            refs = pickle.load(fh)  # written by this script
    if len(refs) >= len(items):
        return refs[:len(items)]
    todo = items[len(refs):]
    pool = concurrent.futures.ProcessPoolExecutor(ORACLE_PROCS)
    try:
        refs.extend(pool.map(_reference, todo,
                             chunksize=max(1, len(todo) // (16 * ORACLE_PROCS))))
    finally:
        pool.shutdown(cancel_futures=True)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(refs, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return refs


# ---------------------------------------------------------------------------
# checking and metrics
# ---------------------------------------------------------------------------

def check(items: list, results: list, refs: list) -> dict:
    """Verdicts for every call, summarised."""
    import oracle
    calls_failed = 0
    evals = ok_evals = 0
    reasons = {}
    rel_errs = []
    covered = with_est = 0
    for item, res, ref in zip(items, results, refs):
        if isinstance(item, wl.GridRequest):
            vs = oracle.classify_grid(item, res, ref, wl.GRID_TOL, wl.GRID_N_TERMS)
            evals += len(ref)
        else:
            vs = [oracle.classify_point(item, res, ref)]
            evals += 1
        bad = [v for v in vs if not v.ok]
        ok_evals += len(vs) - len(bad)
        calls_failed += bool(bad)
        for v in bad:
            reasons[v.reason] = reasons.get(v.reason, 0) + 1
        for v in vs:
            if v.ok and v.rel_err is not None:
                rel_errs.append(v.rel_err)
            if v.ok and v.covered is not None:
                with_est += 1
                covered += v.covered
    return {"calls": len(items), "calls_failed": calls_failed, "evals": evals,
            "ok_evals": ok_evals, "reasons": reasons,
            "rel_err_max": max(rel_errs) if rel_errs else None,
            "est_cover": covered / with_est if with_est else None,
            "with_est": with_est}


def check_pass(workload: str, seed: int, rec: dict) -> dict:
    items = wl.take(workload, seed, rec["n"])
    refs = references(f"{workload}-{seed}-g{wl.GEN_VERSION[workload]}", items)
    return check(items, rec["results"], refs)


def check_probes(workload: str) -> dict:
    """Check the fixed probes of the parts of the domain the workload
    leaves out, where the library is known to fail."""
    items = wl.probes(workload)
    results = pickle.loads(_worker(["probe", workload]))  # from our own worker
    refs = references(f"probes-{workload}-g{wl.GEN_VERSION[workload]}", items)
    return check(items, results, refs)


def tail(lat_ns: list, pct: float):
    """(value_ns, samples beyond) at the nearest-rank percentile."""
    s = sorted(lat_ns)
    rank = max(1, math.ceil(pct / 100.0 * len(s)))
    return s[rank - 1], len(s) - rank


def _line(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<40} {shown:>12} {unit:<6} {note}".rstrip())


def end_to_end(args) -> dict:
    setup_probe(args.workload)  # untimed: leaves the bytecode cache warm
    setups = []

    def gap():
        end = time.perf_counter() + GAP_S
        setups.extend(setup_probe(args.workload) for _ in range(SETUP_PER_GAP))
        time.sleep(max(0.0, end - time.perf_counter()))

    rec = run_pass(args.workload, args.seed, args.seconds, 0, False, CHUNKS, gap)
    setup_s = statistics.median(setups)
    chk = check_pass(args.workload, args.seed, rec)
    known = check_probes(args.workload)
    lat = rec["lat_ns"]
    pct = TAIL_PCT[args.workload]
    tail_ns, beyond = tail(lat, pct)
    m = {"evals_per_s": chk["ok_evals"] / rec["wall_s"],
         "latency_p50_us": statistics.median(lat) / 1e3,
         "latency_tail_us": tail_ns / 1e3,
         "setup_s": setup_s}
    print(f"workload {args.workload} seed {args.seed}: {chk['calls']} calls, "
          f"{chk['evals']} evaluations in {rec['wall_s']:.3f} s "
          "(closed loop, one single-threaded client)")
    _line("evals_per_s", m["evals_per_s"], "1/s",
          f"({chk['ok_evals']} successful evaluations)")
    _line("latency_p50_us", m["latency_p50_us"], "us", f"({len(lat)} calls)")
    _line("latency_tail_us", m["latency_tail_us"], "us",
          f"(p{pct}, {len(lat)} samples, {beyond} beyond)")
    _line("fail_ratio", chk["calls_failed"] / chk["calls"], "",
          f"({chk['calls_failed']} of {chk['calls']} calls; "
          f"{json.dumps(chk['reasons'], sort_keys=True)})")
    _line("probe_fail_ratio", known["calls_failed"] / known["calls"], "",
          f"(untimed probes outside the workload's domain, where the "
          f"library is known to fail: {known['calls_failed']} of "
          f"{known['calls']}; {json.dumps(known['reasons'], sort_keys=True)})")
    _line("rel_err_max", chk["rel_err_max"], "")
    _line("est_cover_ratio", chk["est_cover"], "",
          f"({chk['with_est']} successful points with an estimate)")
    _line("rss_growth_mib", rec["rss_growth"] / 2 ** 20, "MiB")
    _line("setup_s", setup_s, "s", f"(median of {len(setups)} interpreters)")
    return {"check": chk, "metrics": _metrics(m, "end_to_end")}


def per_layer(args) -> dict:
    base = run_pass(args.workload, args.seed, args.seconds, 0, False)
    rec = run_pass(args.workload, args.seed, 0, base["n"], True)
    chk = check_pass(args.workload, args.seed, rec)
    layers = dict(rec["layers"])
    layers["trace.untraced_s"] = base["wall_s"]
    layers["trace.traced_s"] = rec["wall_s"]
    layers["trace.overhead_s"] = rec["wall_s"] - base["wall_s"]
    layers["trace.spans"] = rec["spans"]
    print(f"workload {args.workload} seed {args.seed}: traced {rec['n']} calls, "
          f"{rec['spans']} spans -> .bench_run/spans-{args.workload}.bin")
    for k, v in layers.items():
        _line(k, v, "")
    return {"check": chk, "metrics": _metrics(layers, "per_layer")}


def _metrics(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM unwind, so a running worker is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    if not os.path.isfile(os.path.join(ROOT, "src", "kummeru", "__init__.py")):
        return _fail(f"no kummeru sources under {ROOT}/src")
    try:
        import mpmath  # noqa: F401  (the oracle)
    except ImportError:
        return _fail("mpmath is needed for the oracle")
    os.makedirs(WORK, exist_ok=True)
    try:
        out = per_layer(args) if args.trace else end_to_end(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(f"worker failed: {exc}")
    chk = out["check"]
    print(json.dumps({"correct": chk["calls_failed"] == 0, "attempted": chk["calls"],
                      "failed": chk["calls_failed"], "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
