#!/usr/bin/env python3
"""dillcalc benchmark: three closed-loop workloads with one client each.

BENCHMARK.json gates laws-cold and cli-io.  compose-stall runs the same way
(and with no --workload) but is not gated: on the 2-vCPU VM the benchmark was
built on, its run-to-run spread (0.08 to 0.34) reached past the largest
allowed bound in most tuning rounds, and its runs are the longest; see
perfbench/NOTES.md.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload laws-cold --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py                # every workload, untraced
    python3 perfbench/run.py --trace 1      # per-layer metrics, every workload
    python3 perfbench/run.py --steadiness   # BENCHMARK.json workloads, two sets of runs

--seconds defaults to run_seconds in BENCHMARK.json; --steadiness always uses
that value.

--trace 0 prints the end-to-end metrics; --trace 1 runs each request of a
fixed list untraced and then traced, and prints the per-layer metrics and the tracing
overhead.  The last line of a single-workload run is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is nonzero when a
correctness check fails.  See perfbench/NOTES.md for the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("compose-stall", "laws-cold", "cli-io")
# set-ups per run, spread over the timed loop; odd, so the median is a sample
SETUP_SAMPLES = 21
STEADINESS_RUNS = 10  # runs per set and workload in --steadiness

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Per-layer metrics every workload measures; the others are printed by name
# on the workloads whose layers they time.
PER_LAYER = (
    ("multiindex.table_build_s", "s"),
    ("multiindex.cache_misses", "count"),
    ("multiindex.cache_hit_ratio", "ratio"),
    ("multiindex.table_bytes", "bytes"),
    ("series.products", "count"),
    ("series.product_terms", "count"),
    ("series.product_s", "s"),
    ("multilinear.from_monomial_s", "s"),
    ("calculus.compose_s", "s"),
    ("calculus.compose_calls", "count"),
    ("exponential.bang_map_s", "s"),
    ("exponential.operator_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


# Every workload is one client on one thread, so BLAS gets one thread too
# (within the nproc cap).  OpenBLAS worker threads would spin against the
# client thread on a 2-core machine: at check-laws 3/6 they raise user time
# from ~3.2 s to ~5.5 s a request and widen the run-to-run spread.
BLAS_THREADS = 1


def _pin_environment() -> None:
    """Set before numpy loads; child processes inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # the cli-io degree-cap request relies on the default cap
    os.environ.pop("DILL_SERIES_MAX_DEGREE", None)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ---------------------------------------------------------------------------
# provenance


def _blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args) -> dict:
    import numpy as np

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dillcalc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "dillcalc_commit": commit,
        "dillcalc_source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
    }


# ---------------------------------------------------------------------------
# running requests


def _load_workload(name: str, workdir: str):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls.in_process:
        return cls()
    return cls(workdir, child_env(), os.path.join(HERE, "child.py"))


def _check_import_location() -> None:
    import dillcalc

    if not os.path.abspath(dillcalc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"dillcalc imported from {dillcalc.__file__}, not from {SRC}")


def _execute(wl, req, **kwargs):
    start = time.perf_counter()
    try:
        out, err = wl.execute(req, **kwargs), None
    except Exception as exc:  # the loop goes on; the request counts as failed
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - start, err


def _check(wl, req, out, err):
    """The request's failure message, or None; runs outside the timed span."""
    if err is None:
        try:
            err = wl.check(req, out)
        except Exception as exc:  # a check that cannot run is a failure
            err = f"check raised {type(exc).__name__}: {exc}"
    if err is not None:
        print(f"FAILED request {req.rid} ({req.cls}): {err}", file=sys.stderr)
    return err


def timed_loop(wl, seed: int, seconds: float, probe, setups: list):
    """Whole cycles until `seconds` of request time have been measured.

    Each request is checked right after its timed span and its output dropped,
    so kept outputs do not grow the process.  Between requests, `probe()`
    appends set-up samples to `setups` until it holds SETUP_SAMPLES, spread
    evenly over the request time: the machine's speed drifts over tens of
    seconds, and samples taken together at one moment would follow that
    drift.  Returns ([(class, latency, failure)], check seconds).
    """
    records, busy, cycle, check_s = [], 0.0, 0, 0.0
    while busy < seconds:
        for spec in wl.cycle(seed, cycle):
            req = wl.prepare(spec, seed, len(records))
            out, latency, err = _execute(wl, req)
            busy += latency
            start = time.perf_counter()
            err = _check(wl, req, out, err)
            check_s += time.perf_counter() - start
            records.append((req.cls, latency, err))
            while len(setups) < SETUP_SAMPLES and busy >= len(setups) * seconds / SETUP_SAMPLES:
                setups.append(probe())
        cycle += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe())
    return records, check_s


def warm_setup(seed: int):
    """compose-stall set-up: import (numpy included) plus one warm-up pass."""
    start = time.perf_counter()
    wl = _load_workload("compose-stall", "")
    wl.setup(seed)
    return wl, time.perf_counter() - start


def setup_probe(name: str, seed: int):
    """A callable returning one set-up time, measured in a fresh process."""
    import workloads

    if name != "compose-stall":
        return lambda: workloads.import_probe_s(child_env())

    def probe() -> float:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", "--seed", str(seed)],
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
            timeout=workloads.REQUEST_TIMEOUT_S,
        )
        return json.loads(proc.stdout.splitlines()[-1])["setup_s"]

    return probe


# ---------------------------------------------------------------------------
# metrics


def latency_stats(latencies, failed) -> dict:
    lat = [float("inf") if bad else x for x, bad in zip(latencies, failed)]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return {
        "p50": statistics.median(lat),
        "p90": p90,
        "above_p90": sum(1 for x in lat if x > p90),
    }


def _fmt(value) -> str:
    return "inf" if value == float("inf") else f"{value:.6g}"


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    body = {
        name: {"value": (None if value == float("inf") else value), "unit": units[name]}
        for name, value in metrics.items()
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": body}))


def open_workload(name: str, seed: int, workdir: str):
    """The set-up workload, and its in-process set-up time (None for subprocess ones)."""
    if name == "compose-stall":
        wl, first_setup = warm_setup(seed)
    else:
        wl, first_setup = _load_workload(name, workdir), None
        wl.setup(seed)  # imports dillcalc here only for the checks
    _check_import_location()
    return wl, first_setup


def run_untraced(args, workdir: str) -> int:
    name, seed = args.workload, args.seed
    wl, first_setup = open_workload(name, seed, workdir)

    setups = [] if first_setup is None else [first_setup]
    records, check_s = timed_loop(wl, seed, args.seconds, setup_probe(name, seed), setups)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    latencies = [r[1] for r in records]
    failed = [r[2] is not None for r in records]
    n, n_failed = len(records), sum(failed)
    stats = latency_stats(latencies, failed)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": (n - n_failed) / sum(latencies),
        "latency_p50_ms": stats["p50"] * 1000.0,
        "peak_rss_mb": peak_rss_mb,
    }
    units = dict(END_TO_END)
    counts = {"setup_s": len(setups), "throughput_per_s": n, "latency_p50_ms": n, "peak_rss_mb": 1}

    print("env " + json.dumps(provenance(args)))
    for key, unit in END_TO_END:
        print(f"metric {name} {key} = {_fmt(metrics[key])} {unit} (samples={counts[key]})")
    if stats["above_p90"] >= 10:
        print(f"metric {name} latency_p90_ms = {_fmt(stats['p90'] * 1000.0)} ms (samples={n}, above={stats['above_p90']})")
    else:
        print(f"metric {name} latency_p90_ms not reported: {stats['above_p90']} of {n} samples above it, 10 needed")
    print(f"metric {name} error_rate = {n_failed / n:.6g} ratio (failed={n_failed}, attempted={n})")
    print(f"info {name} check_s = {check_s:.6g} s (outside the timed spans)")
    print(f"info {name} timed_s = {sum(latencies):.6g} s, cycles of {len(wl.cycle(seed, 0))} requests")
    by_cls: dict = {}
    for cls, latency, _ in records:
        by_cls.setdefault(cls, []).append(latency * 1000.0)
    for cls, lat in sorted(by_cls.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"info {name} class {cls}: p50 {statistics.median(lat):.4g} ms (samples={len(lat)})")
    _emit(n_failed == 0, n, n_failed, metrics, units)
    return 0 if n_failed == 0 else 1


# ---------------------------------------------------------------------------
# traced run


def _trace_requests(wl, seed: int) -> list:
    """The fixed request list of a traced run, so its counts repeat exactly."""
    reqs = []
    for cycle in range(wl.trace_cycles):
        for spec in wl.cycle(seed, cycle):
            reqs.append(wl.prepare(spec, seed, len(reqs)))
    return reqs


def run_traced(args, workdir: str) -> int:
    import tracer

    name, seed = args.workload, args.seed
    wl, _ = open_workload(name, seed, workdir)
    reqs = _trace_requests(wl, seed)

    # each request runs untraced and then traced, so a slow spell of the
    # machine hits both sides of trace.overhead_ratio alike
    plain, traced, dumps = [], [], []
    counters = {"products": 0, "product_terms": 0, "operator_bytes": 0, "cache_hits": 0, "cache_misses": 0}
    selfs_by_req, table_bytes, imports = {}, 0, {}
    if wl.in_process:
        tr = tracer.Tracer()
        for req in reqs:
            plain.append(_execute(wl, req))
            tr.install()
            tr.begin(str(req.rid))
            traced.append(_execute(wl, req))
            tr.end()
            tr.uninstall()
        snap = tr.snapshot()
        selfs_by_req = tracer.self_times(snap["spans"])
        table_bytes = snap["table_bytes"]
        for key in counters:
            counters[key] = snap[key]
        dumps.append(snap)
    else:
        for req in reqs:
            plain.append(_execute(wl, req))
            path = os.path.join(workdir, f"spans-{req.rid}.json")
            traced.append(_execute(wl, req, spans_path=path))
            if not os.path.exists(path):  # killed at the timeout; its check fails
                continue
            with open(path, encoding="utf-8") as handle:
                dump = json.load(handle)
            dumps.append(dump)
            selfs_by_req.update(tracer.self_times(dump["spans"]))
            table_bytes = max(table_bytes, dump["table_bytes"])  # per process
            imports[req.cls] = imports.get(req.cls, 0.0) + dump["import_s"]
            for key in counters:
                counters[key] += dump[key]

    failed = sum(
        _check(wl, req, out, err) is not None
        for req, (out, _, err) in list(zip(reqs, plain)) + list(zip(reqs, traced))
    )

    os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
    trace_path = os.path.join(HERE, "traces", f"{name}-seed{seed}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, "processes": dumps}, handle)

    # per-layer sums over requests
    layer: dict = {}
    calls: dict = {}
    for selfs in selfs_by_req.values():
        for metric, value in tracer.layer_times(selfs).items():
            layer[metric] = layer.get(metric, 0.0) + value
        for fn, (_, count) in selfs.items():
            calls[fn] = calls.get(fn, 0) + count
    base = counters["cache_hits"] + counters["cache_misses"]
    plain_s = sum(p[1] for p in plain)
    traced_s = sum(t[1] for t in traced)
    metrics = {
        "multiindex.table_build_s": layer["multiindex.table_build_s"],
        "multiindex.cache_misses": counters["cache_misses"],
        "multiindex.cache_hit_ratio": counters["cache_hits"] / base if base else 0.0,
        "multiindex.table_bytes": table_bytes,
        "series.products": counters["products"],
        "series.product_terms": counters["product_terms"],
        "series.product_s": layer["series.product_s"],
        "multilinear.from_monomial_s": layer["multilinear.from_monomial_s"],
        "calculus.compose_s": layer["calculus.compose_s"],
        "calculus.compose_calls": calls.get("calculus.compose", 0),
        "exponential.bang_map_s": layer["exponential.bang_map_s"],
        "exponential.operator_bytes": counters["operator_bytes"],
        "trace.overhead_ratio": traced_s / plain_s,
    }
    units = dict(PER_LAYER)

    print("env " + json.dumps(provenance(args)))
    n = len(reqs)
    print(f"info {name} traced requests = {n} (fixed list of {wl.trace_cycles} cycles), "
          f"untraced {plain_s:.6g} s, traced {traced_s:.6g} s; spans in {os.path.relpath(trace_path, ROOT)}")
    for key, unit in PER_LAYER:
        print(f"layer {name} {key} = {_fmt(metrics[key])} {unit}")
    print(f"layer {name} multiindex.cache_lookups = {base} count (base of cache_hit_ratio: hits + misses "
          f"over the {len(tracer.CACHED_TABLES)} multiindex lru tables)")
    # layers only some workloads exercise: printed where they ran
    for metric, names in tracer.LAYER_TIMES.items():
        if metric in units or not any(calls.get(fn) for fn in names):
            continue
        print(f"layer {name} {metric} = {_fmt(layer[metric])} s (spans={sum(calls.get(fn, 0) for fn in names)})")
    if not wl.in_process:
        print(f"layer {name} cli.import_s = {_fmt(sum(imports.values()))} s (samples={len(dumps)})")
    if name == "laws-cold":
        _print_law_ms(name, reqs, plain)
    _print_shares(name, reqs, traced, selfs_by_req, imports)
    _emit(failed == 0, 2 * n, failed, metrics, units)
    return 0 if failed == 0 else 1


def _print_law_ms(name, reqs, plain) -> None:
    """The program's own runtime_ms per law, median over the untraced 3/6 requests."""
    per_law: dict = {}
    for req, (out, _, err) in zip(reqs, plain):
        if err is None and req.cls == "laws-3x6" and out[0] == 0:
            for report in json.loads(out[1]):
                per_law.setdefault(report["name"], []).append(report["runtime_ms"])
    for law, values in per_law.items():
        print(f"layer {name} laws.law_ms.{law} = {_fmt(statistics.median(values))} ms "
              f"(3/6, samples={len(values)})")


def _print_shares(name, reqs, traced, selfs_by_req, imports) -> None:
    """Each layer's self time as a share of the traced request time, per request class."""
    import tracer

    by_cls: dict = {}
    for req, (_, wall, _) in zip(reqs, traced):
        entry = by_cls.setdefault(req.cls, {"wall": 0.0, "layers": {}, "spans": 0.0, "import": 0.0})
        entry["wall"] += wall
        selfs = selfs_by_req.get(str(req.rid), {})
        entry["spans"] += sum(v[0] for v in selfs.values())
        for metric, value in tracer.layer_times(selfs).items():
            entry["layers"][metric] = entry["layers"].get(metric, 0.0) + value
    for cls, seconds in imports.items():
        by_cls[cls]["import"] = seconds
    for cls, entry in sorted(by_cls.items()):
        wall = entry["wall"]
        parts = {m: v / wall for m, v in entry["layers"].items() if v > 0}
        parts["other_spans"] = (entry["spans"] - sum(entry["layers"].values())) / wall
        if entry["import"]:
            parts["cli.import"] = entry["import"] / wall
        parts["outside_spans"] = 1.0 - sum(parts.values())
        text = ", ".join(f"{k}={v:.3f}" for k, v in sorted(parts.items(), key=lambda kv: -kv[1]))
        print(f"share {name} {cls}: {text} (base: traced wall {wall:.4g} s)")


# ---------------------------------------------------------------------------
# every workload, and the steadiness check


def _run_child(workload: str, seed: int, seconds: int, trace: int, echo: bool):
    """Run one workload in its own process; returns (exit code, parsed last line)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if echo:
        sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def run_all(args) -> int:
    status = 0
    for workload in WORKLOAD_NAMES:
        code, _ = _run_child(workload, args.seed, args.seconds, args.trace, echo=True)
        status = status or code
    return status


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def load_bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def steadiness(args) -> int:
    """Two sets of runs on distinct seeds; per (workload, metric), do they agree within the bounds?

    A pair agrees when the spread of each set (interquartile range over the
    median) and the change of the median from the first set to the second,
    in either direction, are all within the metric's bound.
    """
    bench = load_bench()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    values: dict = {}
    status = 0
    for s in range(2):
        for i in range(STEADINESS_RUNS):
            seed = 1 + s * STEADINESS_RUNS + i
            for workload in names:
                start = time.perf_counter()
                code, result = _run_child(workload, seed, seconds, 0, echo=False)
                elapsed = time.perf_counter() - start
                if code != 0 or result is None or not result["correct"]:
                    print(f"run failed: {workload} seed {seed} exit {code}")
                    status = 1
                    continue
                for metric, entry in result["metrics"].items():
                    values.setdefault((workload, metric, s), []).append(entry["value"])
                print(f"set {s + 1} seed {seed} {workload} ({elapsed:.1f} s) " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = []
    for workload in names:
        for metric, bound in bounds.items():
            sets = [values.get((workload, metric, s), []) for s in range(2)]
            if any(len(v) < 2 for v in sets):
                continue
            spreads = [_spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            change = (medians[1] - medians[0]) / medians[0]
            agree = all(sp <= bound for sp in spreads) and abs(change) <= bound
            status = status or (0 if agree else 1)
            summary.append({"workload": workload, "metric": metric, "bound": bound,
                            "medians": medians, "spreads": spreads, "median_change": change,
                            "agree": agree, "spreads_below_third_of_bound": all(sp < bound / 3 for sp in spreads)})
            print(f"steady {workload} {metric}: medians " + ", ".join(f"{m:.6g}" for m in medians)
                  + "; spreads " + ", ".join(f"{sp:.4f}" for sp in spreads)
                  + f"; median change {change:+.4f}; bound {bound} -> {'agree' if agree else 'DISAGREE'}")
    print(json.dumps({"steadiness": summary, "runs": STEADINESS_RUNS, "seconds": seconds}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: every workload, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="request time measured per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help=f"compare two sets of {STEADINESS_RUNS} runs against BENCHMARK.json")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_environment()

    if not os.path.isfile(os.path.join(SRC, "dillcalc", "__init__.py")):
        print(f"error: no dillcalc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.seconds is None and not args.probe:
        args.seconds = load_bench()["run_seconds"]

    if args.probe:
        _, seconds = warm_setup(args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        return run_all(args)

    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        return run_traced(args, workdir) if args.trace else run_untraced(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
