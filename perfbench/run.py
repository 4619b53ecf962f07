"""slhforge benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload chain_pulse --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``
and keeps its inputs and results under ``.perfbench_work/``.  One process
drives the program as a single closed-loop caller: each call starts when
the previous one has returned.  BLAS keeps its default thread count, which
the run record states.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are the per-layer metrics, measured by span shims installed from
outside the program (spans.py) on every other unit of work, the units in
between running untraced to give the tracing overhead.  The lines before
the JSON repeat every metric by name and unit, with the run record.

The exit status is 0 when every output matched its reference, 1 when a
check failed, and 2 when the program or its inputs could not be set up.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# in-process set-up, repeated in fresh interpreters to time it with the import
SETUP_PROBE = ("import sys; sys.path[:0] = [sys.argv[1], 'src']; import workloads; "
               "workloads.make(sys.argv[2], int(sys.argv[3]), sys.argv[4])")

PER_LAYER_SPANS = {  # metric: span whose self time it reports
    "signals.evaluate_ms": "signals.evaluate",
    "signals.mul_ms": "signals.mul",
    "dynamics.rhs_ms": "dynamics.rhs",
    "dynamics.master_self_ms": "dynamics.master",
    "dynamics.schrodinger_self_ms": "dynamics.schrodinger",
    "dynamics.observe_ms": "dynamics.observe",
    "network.series_ms": "network.series",
    "network.chain_ms": "network.chain",
    "netlist.tokenize_ms": "netlist.tokenize",
    "netlist.parse_ms": "netlist.parse",
    "netlist.compile_ms": "netlist.compile",
    "cli.main_self_ms": "cli.main",
    "harness.self_ms": "harness",
}
PER_LAYER_CALLS = {"signals.evaluate_calls": "signals.evaluate",
                   "signals.mul_calls": "signals.mul",
                   "dynamics.rhs_calls": "dynamics.rhs",
                   "network.series_calls": "network.series"}
UNITS = {"_ms": "ms", "_calls": "count", "_bytes": "bytes", "_frac": "ratio",
         "_computed": "GFLOP", "_max": "count", "_allocs": "count", "tokens": "count"}


def unit_of(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def fail_setup(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# -- run record --------------------------------------------------------------


def _openblas():
    """OpenBLAS configuration string and thread count, read from the library
    numpy loaded; ("unknown", 0) when numpy uses another BLAS."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            try:
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
            return config().decode(), threads()
    return "unknown", 0


def _commit() -> str:
    """HEAD of a git checkout in the current directory, else "unknown"."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args) -> dict:
    import numpy as np
    import scipy

    config, threads = _openblas()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas": config, "blas_threads": threads,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "load": "1 closed-loop caller",
    }


# -- set-up ------------------------------------------------------------------


def time_setup(workload: str, seed: int, work: str) -> list[float]:
    """Wall times of SETUP_REPEATS fresh interpreters that import the
    program and set the workload up, as a user's process would."""
    times = []
    for k in range(SETUP_REPEATS):
        target = os.path.join(work, f"setup{k}")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, HERE, workload,
                               str(seed), target], capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail_setup(f"set-up failed:\n{proc.stderr}")
        shutil.rmtree(target)
    return times


# -- measurement -------------------------------------------------------------


def measure(wl, seconds: float, tracer=None, install=None):
    """Run units until ``seconds`` have passed (and the workload has its
    minimum sample count).  With a tracer, units alternate untraced and
    traced on the same inputs; returns (untraced units, traced units)."""
    plain, traced = [], []
    need = getattr(wl, "MIN_SAMPLES", 1)
    start = time.perf_counter()
    k = 0
    while (time.perf_counter() - start < seconds
           or sum(len(u.latencies) for u in plain) < need):
        plain.append(wl.unit(k))
        if tracer is not None:
            install(tracer)
            try:
                traced.append(wl.unit(k, tracer))
            finally:
                tracer.uninstall()
        k += 1
    return plain, traced


def percentile_report(samples: list[float]) -> tuple[float, float]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it
    (p50 when none has), with that percentile as a number."""
    import numpy as np

    best = 50.0
    for p in (90.0, 99.0, 99.9):
        if len(samples) * (1 - p / 100) >= 10:
            best = p
    return float(np.percentile(samples, best)), best


def end_to_end(setup_s: float, units) -> tuple[dict, list[float]]:
    """Latency and rate from the fastest repeats in the run (set-up, which
    cannot repeat in-process, is a median).  The machine is shared and its
    speed wanders by tens of percent, in spells from a fraction of a second
    to minutes; interference only ever adds time, so the fastest of repeated
    identical work is the figure that moves least with it.  Each operation
    of a unit is timed on its own and ``wall_s`` adds up the fastest run of
    each: a short operation fits in a short fast spell where a whole unit
    would not."""
    best: dict[str, float] = {}
    for u in units:
        for key, x in zip(u.keys, u.latencies):
            best[key] = min(best.get(key, x), x)
    wall = sum(best.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (units[0].work / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, [x for u in units for x in u.latencies]


def per_layer(tracer, plain, traced) -> tuple[dict, float]:
    n = len(traced)
    own = tracer.self_times()
    calls = tracer.call_counts()
    m = {name: 1e3 * own.get(span, 0.0) / n for name, span in PER_LAYER_SPANS.items()}
    m.update({name: calls.get(span, 0) / n for name, span in PER_LAYER_CALLS.items()})
    m["hilbert.operator_allocs"] = tracer.counts.get("hilbert.operator_allocs", 0) / n
    m["dynamics.rhs_gflop_computed"] = tracer.counts.get("dynamics.rhs_flop", 0) / 1e9 / n
    m["netlist.tokens"] = tracer.counts.get("netlist.tokens", 0) / n
    m["network.terms_max"] = tracer.maxima.get("network.terms_max", 0)
    m["network.degree_max"] = tracer.maxima.get("network.degree_max", 0)
    m["cli.output_bytes"] = sum(u.output_bytes for u in traced) / n
    wall = tracer.root_wall()
    m["trace.wall_ms"] = 1e3 * wall / n
    untraced = sum(x for u in plain for x in u.latencies)
    m["trace.overhead_frac"] = wall / untraced - 1.0
    # self times partition the traced wall time; report how far they miss
    gap = abs(sum(own.values()) - wall) / wall
    return {k: (v, unit_of(k)) for k, v in sorted(m.items())}, gap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("chain_pulse", "cascade_dense", "reduce_corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "slhforge", "__init__.py")):
        fail_setup("no src/slhforge here; run from the root of an slhforge checkout")
    sys.path[:0] = [HERE, "src"]
    import workloads
    import spans

    if not os.path.abspath(workloads.cli.__file__).startswith(os.path.abspath("src")):
        fail_setup(f"imported slhforge from {workloads.cli.__file__}, not from ./src")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, tag)
    results = os.path.join(WORK, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(results, exist_ok=True)

    setups = time_setup(args.workload, args.seed, work)
    wl = workloads.make(args.workload, args.seed, os.path.join(work, "inputs"))
    wl.warmup()
    tracer = spans.Tracer() if args.trace else None
    plain, traced = measure(wl, args.seconds, tracer, workloads.install)
    units = plain + traced
    attempted = sum(len(u.latencies) for u in units)
    failed = sum(u.failed_ops for u in units)
    failures = [f for u in units for f in u.failures]

    record = run_record(args)
    e2e, lat = end_to_end(statistics.median(setups), plain)
    if args.trace:
        metrics, gap = per_layer(tracer, plain, traced)
        if gap > 1e-9:
            failures.append(f"span self times miss the traced wall time by {gap:.2e}")
        tracer.dump(os.path.join(results, f"{tag}-spans.npz"))
    else:
        metrics = e2e

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(plain)}+{len(traced)} traced")
    print("record " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} {value:.6g} {unit}")
    if not args.trace:
        # the same figures under the names of each workload, plus the tail
        rate = e2e["work_per_s"][0]
        if args.workload == "reduce_corpus":
            tail, p = percentile_report(lat)
            print(f"metric {args.workload} reduce_per_s {rate:.6g} 1/s")
            print(f"metric {args.workload} reduce_p50_ms {1e3 * statistics.median(lat):.6g} ms")
            print(f"metric {args.workload} reduce_p{p:g}_ms {1e3 * tail:.6g} ms "
                  f"(of {len(lat)} samples)")
        else:
            print(f"metric {args.workload} rk4_steps_per_s {rate:.6g} 1/s")
    print(f"metric {args.workload} error_rate {failed / attempted:.6g} 1 "
          f"({failed} failed of {attempted} attempted)")
    for msg in failures[:20]:
        print(f"FAIL {msg}")

    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(results, f"{tag}.json"), "w") as fh:
        json.dump(dict(result, record=record, failures=failures, setup_probes_s=setups,
                       latencies_s=lat), fh)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
