"""The three workloads: set-up, one unit of work, and its checks.

Each workload object is built by :func:`make` (the set-up the benchmark
times) and then runs units of work.  A unit is a list of operations, each a
call into the program timed on its own; the checks against refs.py run
between operations, outside the timing.

- chain_pulse: one unit is one verify ladder through the library API on
  one seeded cancellation-chain instance; it is one operation.
- cascade_dense: one unit is one ``slhforge simulate`` call, in-process.
- reduce_corpus: one unit is one pass of ``slhforge reduce`` over the
  corpus; each file is one operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time

import numpy as np

import gen
import refs
from slhforge import cli, dynamics, hilbert, netlist, network, signals

perf_counter = time.perf_counter


class UnitResult:
    """Per-operation latencies (s) and outcome of one unit of work.  Equal
    keys mark operations that do the same work."""

    def __init__(self):
        self.keys: list[str] = []
        self.latencies: list[float] = []
        self.work = 0  # RK4 steps or reductions completed
        self.failures: list[str] = []
        self.failed_ops = 0
        self.output_bytes = 0

    def op(self, key: str, latency: float, work: int, failures: list[str], label: str):
        self.keys.append(key)
        self.latencies.append(latency)
        self.work += work
        if failures:
            self.failed_ops += 1
            self.failures += [f"{label}: {msg}" for msg in failures]


def timed(tracer, fn, *args):
    """``fn(*args)`` and its wall time; a root span when tracing."""
    if tracer is None:
        t0 = perf_counter()
        value = fn(*args)
        return value, perf_counter() - t0
    return tracer.root(fn, *args)


def run_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """One in-process CLI call: its exit code, standard output and standard
    error.  Output stays in memory, so the shared disk's stalls are not
    timed.  An exception escaping ``main`` is a failure of the program,
    reported as a missing exit code with the exception appended to the
    error text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            return None, out.getvalue(), f"{err.getvalue()}uncaught {exc!r}"
    return code, out.getvalue(), err.getvalue()


# -- chain_pulse -------------------------------------------------------------


class ChainPulse:
    INSTANCES = 32

    def __init__(self, seed: int, work_dir: str):
        n = round(gen.CHAIN_HORIZON / gen.CHAIN_STEP)
        self.times = np.linspace(0.0, gen.CHAIN_HORIZON, n + 1)
        self.probes = self.times[:: n // gen.CHAIN_PROBES]
        self.params = [gen.chain_instance(seed, i) for i in range(self.INSTANCES)]
        self.inputs = [self._inputs(p, self.times) for p in self.params]
        self.alphas: dict[int, complex] = {}

    @staticmethod
    def _inputs(p: dict, times) -> dict:
        space = hilbert.HilbertSpace.fock("c", gen.CHAIN_CUTOFF)
        return {
            "space": space,
            "L": np.sqrt(p["gamma"]) * hilbert.annihilator(space, "c"),
            "H0": p["omega0"] * hilbert.number_op(space, "c"),
            "bindings": {"u": signals.GaussianPulseSignal(
                "u", amplitude=p["amplitude"], center=p["center"], width=p["width"])},
            "vacuum": dynamics.QuantumState.vacuum(space),
            "times": times,
        }

    def ladder(self, x: dict, probes) -> dict:
        g = network.build_cancellation_chain([x["L"]], x["H0"], ["u"], x["space"])
        master = dynamics.integrate_master(g, x["vacuum"], x["times"], x["bindings"],
                                           store_states=True)
        schro = dynamics.integrate_schrodinger(g.H, x["vacuum"], x["times"], x["bindings"],
                                               store_states=True)
        psi = schro.states[-1]
        distance = dynamics.trace_distance(master.states[-1], np.outer(psi, psi.conj()))
        outputs = [dynamics.output_expectation(g, master, t, x["bindings"]) for t in probes]
        return {"l_terms": sum(len(entry.terms) for entry in g.L), "rho_T": master.states[-1],
                "psi_T": psi, "states": master.states, "distance": distance,
                "outputs": np.array(outputs)}

    def warmup(self):
        x = dict(self.inputs[0], times=self.times[:51])
        self.ladder(x, x["times"][::10])

    def attempt(self, x: dict, probes):
        try:
            return self.ladder(x, probes), None
        except Exception as exc:  # the library raised: a failed operation
            return None, exc

    def unit(self, k: int, tracer=None) -> UnitResult:
        i = k % self.INSTANCES
        res = UnitResult()
        (out, exc), dt = timed(tracer, self.attempt, self.inputs[i], self.probes)
        if exc is not None:
            fails = [f"uncaught {exc!r}"]
        else:
            if i not in self.alphas:
                self.alphas[i] = refs.chain_alpha(self.params[i], gen.CHAIN_HORIZON)
            fails = refs.check_chain(out, self.alphas[i])
        res.op("ladder", dt, 2 * (len(self.times) - 1), fails, f"instance {i}")
        return res


# -- cascade_dense -----------------------------------------------------------


class CascadeDense:
    def __init__(self, seed: int, work_dir: str):
        self.params = gen.cascade_params(seed)
        path, = gen.write_corpus([{"name": "cascade", "text": gen.cascade_netlist(self.params),
                                   "csv": {}}], work_dir)
        self.argv = ["simulate", path, "--horizon", repr(gen.CASCADE_HORIZON),
                     "--step", repr(gen.CASCADE_STEP),
                     "--observable", "a:c1", "--observable", "a:c2"]
        n = round(gen.CASCADE_HORIZON / gen.CASCADE_STEP)
        self.times = np.linspace(0.0, n * gen.CASCADE_STEP, n + 1)
        self.alphas = None

    def warmup(self):
        argv = list(self.argv)
        argv[argv.index("--horizon") + 1] = repr(2 * gen.CASCADE_STEP)
        run_cli(argv)

    def unit(self, k: int, tracer=None) -> UnitResult:
        res = UnitResult()
        (code, text, err), dt = timed(tracer, run_cli, self.argv)
        if code != 0:
            fails = [f"simulate exit {code}: {err.strip()}"]
        else:
            res.output_bytes = len(text)
            if self.alphas is None:
                self.alphas = refs.cascade_amplitudes(self.params, self.times)
            fails = refs.check_cascade(text, self.times, self.alphas)
        res.op("simulate", dt, len(self.times) - 1, fails, "cascade")
        return res


# -- reduce_corpus -----------------------------------------------------------


class ReduceCorpus:
    MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it

    def __init__(self, seed: int, work_dir: str):
        self.entries = gen.corpus(seed)
        self.paths = gen.write_corpus(self.entries, work_dir)
        self.digests: dict[str, str] = {}  # report hash once it passed the reference

    def warmup(self):
        for path in self.paths[:3]:
            run_cli(["reduce", path])

    def unit(self, k: int, tracer=None) -> UnitResult:
        res = UnitResult()
        for e, path in zip(self.entries, self.paths):
            (code, text, err), dt = timed(tracer, run_cli, ["reduce", path])
            spec = e["spec"]
            if "expect_error" in spec:
                fails = refs.check_error(code, err, spec["expect_error"])
                if text:
                    fails.append("a failed reduce printed a report")
            elif code != 0:
                fails = [f"reduce exit {code}: {err.strip()}"]
            else:
                res.output_bytes += len(text)
                digest = hashlib.sha256(text.encode()).hexdigest()
                if self.digests.get(e["name"]) == digest:
                    fails = []
                else:
                    fails = refs.check_report(text, spec)
                    if not fails:
                        self.digests[e["name"]] = digest
            res.op(e["name"], dt, 1, fails, e["name"])
        return res


WORKLOADS = {"chain_pulse": ChainPulse, "cascade_dense": CascadeDense,
             "reduce_corpus": ReduceCorpus}


def make(name: str, seed: int, work_dir: str):
    """Set up a workload: write its seeded inputs and build them."""
    os.makedirs(work_dir, exist_ok=True)
    return WORKLOADS[name](seed, work_dir)


# -- tracing -----------------------------------------------------------------


def _tokens(tracer, args, tokens):
    tracer.count("netlist.tokens", len(tokens) - 1)  # minus the EOF token


def _series_stats(tracer, args, g):
    entries = [e for row in g.S for e in row] + list(g.L) + [g.H]
    tracer.maximum("network.terms_max", max(len(e.terms) for e in entries))
    tracer.maximum("network.degree_max",
                   max((m.degree for e in entries for m in e.terms), default=0))


def _rhs_flops(tracer, args, _out):
    # 8 d^3 real flops per dense complex matmul: [H, rho] takes two, and
    # each coupling that is not identically zero takes five more
    rho, g = args[0], args[1]
    live = sum(1 for entry in g.L if entry.terms)
    tracer.count("dynamics.rhs_flop", 8 * rho.shape[0] ** 3 * (2 + 5 * live))


def install(tracer):
    """Wrap each layer's public names where the program looks them up."""
    t = tracer
    t.patch(cli, "main", "cli.main")
    t.patch(cli, "parse_netlist", "netlist.parse")
    t.patch(netlist, "tokenize", "netlist.tokenize", after=_tokens)
    t.patch(cli, "compile_netlist", "netlist.compile")
    for module in (network, netlist):
        t.patch(module, "series", "network.series", after=_series_stats)
    t.patch(network, "build_cancellation_chain", "network.chain")
    for module in (dynamics, cli):
        t.patch(module, "integrate_master", "dynamics.master")
        t.patch(module, "integrate_schrodinger", "dynamics.schrodinger")
    t.patch(dynamics, "lindblad_rhs", "dynamics.rhs", after=_rhs_flops)
    t.patch(dynamics, "trace_distance", "dynamics.observe")
    t.patch(dynamics, "output_expectation", "dynamics.observe")
    t.patch(signals.OpPolynomial, "evaluate", "signals.evaluate")
    t.patch(signals.OpPolynomial, "__mul__", "signals.mul")
    t.counter(hilbert.Operator, "__init__", "hilbert.operator_allocs")
