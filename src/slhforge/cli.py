"""Command-line front end: reduce / simulate / verify over netlist files.

Reports are deterministic: fixed field order and every float rendered
with %.12e, so golden files diff cleanly.

Exit codes: 0 ok, 1 parse or file I/O error, 2 reduction error or bad
argument, 3 validation or verification failure, 4 integration abort,
130 interrupted (128 + SIGINT, the status a shell reports).
Commands return 0, or 3 once their report shows the failure, and raise
every other failure; ``FAILURES`` is the one table in which ``main``
turns each exception into its exit code and its one stderr line.  An
interrupt (Ctrl-C) prints the one line ``interrupted``.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys

import numpy as np

from .dynamics import (
    DEFAULT_LEAK_THRESHOLD,
    DEFAULT_TRACE_TOL,
    IntegrationError,
    QuantumState,
    SimulationResult,
    analytic_driven_cavity,
    coherent_fidelity,
    integrate_master,
    integrate_schrodinger,
    trace_distance,
)
from .hilbert import DEFAULT_TOL, MODE_OPERATORS, HilbertSpace, _dense, annihilator, number_op
from .netlist import (
    NetlistReductionError,
    NetlistSemanticError,
    NetlistSyntaxError,
    compile_netlist,
    parse_netlist,
)
from .network import (InvalidTripleError, build_cancellation_chain,
                      build_noisy_construction, is_unitary, validate_triple)
from .signals import GaussianPulseSignal, OpPolynomial, _mono_key

EXIT_PARSE = 1
EXIT_REDUCE = 2
EXIT_VALIDATE = 3
EXIT_DYNAMICS = 4
EXIT_INTERRUPT = 130  # 128 + SIGINT

#: Most steps a time grid may have.  The grid, the per-step diagnostics
#: and the table of signal samples at the RK4 stage times all grow
#: linearly with it, so a larger grid is refused before it is allocated.
MAX_STEPS = 10**6

log = logging.getLogger("slhforge")


class ArgumentError(ValueError):
    """A command-line value the command cannot use."""


#: Each failure a command raises: its exit code and the prefix of its
#: stderr line, which ends with the exception's message (its class name
#: when the message is empty).  An exception takes the entry of its
#: nearest listed class; numpy's failed allocation is a MemoryError.
FAILURES = {
    OSError: (EXIT_PARSE, "error"),
    UnicodeDecodeError: (EXIT_PARSE, "error"),
    NetlistSyntaxError: (EXIT_PARSE, "parse error"),
    NetlistSemanticError: (EXIT_REDUCE, "reduction error"),
    NetlistReductionError: (EXIT_REDUCE, "reduction error"),
    ArgumentError: (EXIT_REDUCE, "error"),
    MemoryError: (EXIT_REDUCE, "error"),
    InvalidTripleError: (EXIT_VALIDATE, "validation failure"),
    IntegrationError: (EXIT_DYNAMICS, "integration aborted"),
}


def _fmt(x: float) -> str:
    # + 0.0 turns -0.0 into 0.0, so a zero prints the same on every arithmetic path
    return "%.12e" % (float(x) + 0.0)


def _dump_matrix(mat) -> list:
    # a CSR coefficient is densified here only to be printed, one at a time
    return [[[_fmt(v.real), _fmt(v.imag)] for v in row] for row in _dense(mat)]


def _dump_poly(p: OpPolynomial) -> dict:
    monos = sorted(p.terms, key=_mono_key)
    return {"terms": [{"monomial": str(m), "matrix": _dump_matrix(p.terms[m])} for m in monos]}


def _write_output(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return compile_netlist(parse_netlist(text), base_dir=os.path.dirname(path) or ".")


def _load_reduced(path: str):
    """The reduced triple and the signal bindings of a netlist file; the
    components and the trace of the reduction are freed before a run."""
    compiled = _load(path)
    return compiled.triple, compiled.signals


def _check_tolerances(args):
    """Each tolerance flag the command has must be a number >= 0."""
    for name in ("tol", "trace_tol", "leak_threshold"):
        value = getattr(args, name, 0.0)
        if not value >= 0:
            flag = "--" + name.replace("_", "-")
            raise ArgumentError(f"{flag} must be a number >= 0, got {value!r}")


# -- reduce ---------------------------------------------------------------


def cmd_reduce(args) -> int:
    compiled = _load(args.file)
    g = compiled.triple

    h_ok = g.H.adjoint_gap() <= args.tol
    s_ok = is_unitary(g.T, args.tol)
    report = {
        "network": compiled.network_name,
        "channels": g.channels,
        "space_dim": g.space.total_dim,
        "S": [[_dump_poly(entry) for entry in row] for row in g.S],
        "L": [_dump_poly(entry) for entry in g.L],
        "H": _dump_poly(g.H),
        "trace": [
            {"component": step.component, "summary": step.summary}
            for step in compiled.trace
        ],
        # T is static, so its check at t = 0 holds at every time
        "validation": {
            "probe_times": [_fmt(0.0)],
            "h_self_adjoint": h_ok,
            "s_unitary_at_probes": s_ok,
            "l_zero": [entry.is_zero() for entry in g.L],
        },
    }
    _write_output(args.output, json.dumps(report, indent=2) + "\n")
    if not (h_ok and s_ok):
        print("validation failure: see report", file=sys.stderr)
        return EXIT_VALIDATE
    return 0


# -- time grid ------------------------------------------------------------


def _grid(horizon: float, step: float, bindings) -> np.ndarray:
    """The grid 0, step, ..., n*step with n = round(horizon / step).

    A step that is not finite and positive, a horizon that is not finite
    and nonnegative, a ratio horizon / step that is not finite or exceeds
    MAX_STEPS, a horizon that is not a whole number of steps (within
    1e-9 * max(1, horizon)), or a bound signal whose horizon does not
    cover the grid raises ArgumentError (exit 2) before anything
    integrates.
    """
    if not (math.isfinite(step) and step > 0):
        raise ArgumentError(f"step must be finite and > 0, got {step!r}")
    if not (math.isfinite(horizon) and horizon >= 0):
        raise ArgumentError(f"horizon must be finite and >= 0, got {horizon!r}")
    ratio = horizon / step
    if not (math.isfinite(ratio) and ratio <= MAX_STEPS):
        raise ArgumentError(f"horizon / step = {ratio:g} steps exceeds "
                            f"the limit of {MAX_STEPS} steps")
    n = int(round(ratio))
    if abs(n * step - horizon) > 1e-9 * max(1.0, horizon):
        raise ArgumentError(f"horizon {horizon!r} is not a whole number of "
                            f"steps of {step!r}")
    times = np.linspace(0.0, n * step, n + 1)
    for name, signal in sorted(bindings.items()):
        span = signal.horizon
        if span is not None and not (span[0] <= 0.0 and times[-1] <= span[1]):
            raise ArgumentError(f"signal {name!r} is defined on "
                                f"[{span[0]:g}, {span[1]:g}], which does not cover "
                                f"the grid [0, {times[-1]:g}]")
    return times


# -- simulate -------------------------------------------------------------


def _initial_state(spec: str, space) -> QuantumState:
    """``vacuum``, ``fock:n`` or ``coherent:re,im``.  Any other spec, a
    number that does not parse or a wrong count of numbers included, is
    one "bad initial state spec" error; a Fock level out of range and an
    amplitude that is not finite or overflows keep the state's message.
    A coherent state takes the space's one Fock factor, so a space with
    none or several is refused."""
    kind, colon, value = spec.partition(":")
    try:
        if kind == "fock" and colon:
            level = int(value)
        elif kind == "coherent" and colon:
            re, im = (float(x) for x in value.split(","))
        elif spec != "vacuum":
            raise ValueError
    except ValueError:
        raise ValueError(f"bad initial state spec {spec!r} "
                         "(vacuum | fock:n | coherent:re,im)") from None
    if kind == "fock":
        return QuantumState.fock(space, level)
    if kind == "coherent":
        if space.sole_fock_label() is None:
            modes = sum(f.kind == "fock" for f in space.factors)
            raise ValueError(f"a coherent initial state needs exactly one Fock factor; "
                             f"this space has {modes}")
        return QuantumState.coherent(space, complex(re, im))
    return QuantumState.vacuum(space)


def _observable(name: str, space):
    kind, colon, label = name.partition(":")
    unknown = f"unknown observable {name!r} (a | adag | n, optionally :label)"
    if colon and not label:
        raise ValueError(unknown)
    if not label:
        label = space.sole_fock_label()
        if label is None:
            raise ValueError(f"observable {name!r} needs a :label on this space")
    if label not in space:
        raise ValueError(f"observable {name!r}: no factor labeled {label!r} in {space}")
    if kind in MODE_OPERATORS:
        return MODE_OPERATORS[kind](space, label)
    raise ValueError(unknown)


def cmd_simulate(args) -> int:
    g, bindings = _load_reduced(args.file)
    space = g.space
    try:
        state = _initial_state(args.initial, space)
        observables = {name: _observable(name, space) for name in args.observable}
    except ValueError as exc:
        raise ArgumentError(str(exc)) from exc
    times = _grid(args.horizon, args.step, bindings)
    validate_triple(g)
    closed = all(entry.is_zero() for entry in g.L)
    # the integrator is handed the only references to the triple, the state
    # and the observables, so it frees their dense arrays once it has
    # compiled them; a name here would keep them for the whole run
    handed = [g.H if closed else g, state, observables]
    del g, state, observables
    if closed:
        log.info("closed system: Schrodinger integration")
        result = integrate_schrodinger(
            handed.pop(0), handed.pop(0), times, bindings, handed.pop(0),
            norm_tol=args.trace_tol, leak_threshold=args.leak_threshold,
        )
    else:
        result = integrate_master(
            handed.pop(0), handed.pop(0), times, bindings, handed.pop(0),
            trace_tol=args.trace_tol, leak_threshold=args.leak_threshold,
        )
    _write_output(args.output, result.to_csv())
    return 0


# -- verify ---------------------------------------------------------------


def _check(name, measured, tolerance, larger_ok=False):
    passed = measured >= tolerance if larger_ok else measured <= tolerance
    return {"name": name, "passed": bool(passed), "measured": _fmt(measured),
            "tolerance": _fmt(tolerance)}


def _verify_ladder(g, bindings, horizon, args) -> tuple[list, SimulationResult | None]:
    """The checks every verified triple gets, from a file or from --demo.

    The grid is checked first (exit 2).  The couplings must cancel
    exactly and the triple must be valid within --tol
    (:func:`validate_triple`).  Only when both pass does the triple run,
    from vacuum under the master and Schrodinger equations, whose final
    states must agree, and must stay pure; the Schrodinger run is
    returned too (None when a check failed and nothing ran).
    """
    times = _grid(horizon, args.step, bindings)
    nonzero = [i for i, entry in enumerate(g.L) if not entry.is_zero()]
    c = _check("couplings_cancel_exactly", 1.0 if nonzero else 0.0, 0.5)
    if nonzero:
        c["detail"] = f"nonzero L entries at channels {nonzero}"
    checks = [c]
    try:
        validate_triple(g, tol=args.tol)
        checks.append(_check("triple_valid", 0.0, 0.5))
    except InvalidTripleError as exc:
        checks.append(dict(_check("triple_valid", 1.0, 0.5), detail=str(exc)))
    if not all(c["passed"] for c in checks):
        return checks, None

    vac = QuantumState.vacuum(g.space)
    master = integrate_master(g, vac, times, bindings)
    schro = integrate_schrodinger(g.H, vac, times, bindings)
    dist = trace_distance(master.final, np.outer(schro.final, schro.final.conj()))
    checks += [
        _check("master_vs_schrodinger_trace_distance", dist, 1e-6),
        _check("purity_drift", float(np.max(np.abs(master.purity - 1.0))), 1e-8),
    ]
    return checks, schro


def _verify_demo(args) -> list:
    """Flagship instance: cavity coupling sqrt(gamma) a, Hamiltonian
    omega0 a†a, Gaussian-pulse drive, fed through the feedback chain."""
    gamma, omega0 = 0.4, 1.0
    cutoff = 15
    space = HilbertSpace.fock("c", cutoff)
    a = annihilator(space, "c")
    L = np.sqrt(gamma) * a
    H0 = omega0 * number_op(space, "c")
    u = GaussianPulseSignal("u", amplitude=0.5, center=3.0, width=0.5)
    # by default the run lasts until the pulse has passed, so the oracle
    # compares a driven amplitude rather than a vacuum one
    horizon = u.center + 6 * u.width if args.horizon is None else args.horizon

    g = build_cancellation_chain([L], H0, ["u"], space)
    checks, schro = _verify_ladder(g, {"u": u}, horizon, args)

    # H picks up the bilinear term twice over (once per pass of the noise
    # through the coupling)
    expected_H = OpPolynomial.constant(H0) + 2.0 * (
        OpPolynomial.constant(L.dagger()) * OpPolynomial.of_signal(space, "u")
    ).imag()
    checks.append(_check("hamiltonian_term", g.H.max_coeff_diff(expected_H), args.tol))

    # driven-cavity oracle: the chain's Hamiltonian term doubles the
    # drive, so compare against the oracle fed with 2u
    psi_T = schro.final
    a_T = complex(psi_T.conj() @ a.matrix @ psi_T)
    alpha_T = analytic_driven_cavity(omega0, gamma, lambda s: 2.0 * u(s), schro.times[-1])
    checks.append(_check("driven_cavity_oracle", abs(a_T - alpha_T), 1e-4))
    fid = coherent_fidelity(QuantumState(space, vector=psi_T / np.linalg.norm(psi_T)), alpha_T)
    checks.append(_check("coherent_fidelity", fid, 1.0 - 1e-6, larger_ok=True))

    # output-field oracle: with the coupling kept, <b_out> = <L> follows the
    # cavity damped at gamma and driven by 2u, on about 21 grid points
    noisy = build_noisy_construction(np.eye(1), [L], H0, ["u"], space)
    run = integrate_master(noisy, QuantumState.vacuum(space), schro.times, {"u": u}, {"L": L})
    dev = max(abs(run.expectations["L"][k] - np.sqrt(gamma) * analytic_driven_cavity(
        omega0 - 0.5j * gamma, gamma, lambda s: 2.0 * u(s), run.times[k]))
        for k in range(0, run.times.size, max(1, (run.times.size - 1) // 20)))
    checks.append(_check("output_field_oracle", dev, 1e-6))
    return checks


def cmd_verify(args) -> int:
    if args.demo:
        instance, checks = "demo", _verify_demo(args)
    elif args.file is None:
        raise ArgumentError("give a netlist file or --demo")
    else:
        g, bindings = _load_reduced(args.file)
        horizon = 1.0 if args.horizon is None else args.horizon
        instance = args.file
        checks = _verify_ladder(g, bindings, horizon, args)[0]
    passed = all(c["passed"] for c in checks)
    bundle = {"instance": instance, "checks": checks, "passed": passed}
    _write_output(args.output, json.dumps(bundle, indent=2) + "\n")
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']}: measured {c['measured']} vs tolerance {c['tolerance']}",
              file=sys.stderr)
    if not passed:
        failing = [c["name"] for c in checks if not c["passed"]]
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VALIDATE
    return 0


# -- entry ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves it
    as it was (an appended option copies its default list first)."""
    parser = argparse.ArgumentParser(
        prog="slhforge",
        description="Compose and simulate quantum input-output networks from netlist files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a netlist to its effective triple")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("simulate", help="integrate the reduced network")
    p.add_argument("file")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--initial", default="vacuum")
    p.add_argument("--observable", action="append", default=[])
    p.add_argument("--trace-tol", type=float, default=DEFAULT_TRACE_TOL,
                   help="largest trace (master) or norm (Schrodinger) drift")
    p.add_argument("--leak-threshold", type=float, default=DEFAULT_LEAK_THRESHOLD,
                   help="largest population of the top two Fock levels")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the verification ladder")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--demo", action="store_true", help="built-in cavity instance")
    p.add_argument("--horizon", type=float, default=None,
                   help="end time (default: 6.0 for --demo, its pulse centre plus six "
                        "widths; 1.0 for a file)")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="tolerance of triple_valid (and of the demo's hamiltonian_term)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("SLHFORGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        _check_tolerances(args)
        return args.func(args)
    except tuple(FAILURES) as exc:
        code, prefix = next(FAILURES[k] for k in type(exc).__mro__ if k in FAILURES)
        print(f"{prefix}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code
    except KeyboardInterrupt:  # not an Exception, so no entry of FAILURES
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
