"""Command-line front end: reduce / simulate / verify over netlist files.

Reports are deterministic: fixed field order and every float rendered
with %.12e, so golden files diff cleanly.

Exit codes: 0 ok, 1 parse or file I/O error, 2 reduction error or bad
argument, 3 validation or verification failure, 4 integration abort.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .dynamics import (
    IntegrationError,
    QuantumState,
    SimulationResult,
    analytic_driven_cavity,
    coherent_fidelity,
    integrate_master,
    integrate_schrodinger,
    output_expectation,
    trace_distance,
)
from .hilbert import HilbertSpace, annihilator, creator, number_op
from .netlist import (
    NetlistReductionError,
    NetlistSemanticError,
    NetlistSyntaxError,
    compile_netlist,
    parse_netlist,
)
from .network import build_cancellation_chain, validate_triple
from .signals import GaussianPulseSignal, OpPolynomial

EXIT_PARSE = 1
EXIT_REDUCE = 2
EXIT_VALIDATE = 3
EXIT_DYNAMICS = 4

#: Most steps a time grid may have.  The grid, the per-step diagnostics
#: and the table of signal samples at the RK4 stage times all grow
#: linearly with it, so a larger grid is refused before it is allocated.
MAX_STEPS = 10**6

log = logging.getLogger("slhforge")


def _fmt(x: float) -> str:
    return "%.12e" % float(x)


def _dump_matrix(mat: np.ndarray) -> list:
    return [[[_fmt(v.real), _fmt(v.imag)] for v in row] for row in mat]


def _dump_poly(p: OpPolynomial) -> dict:
    terms = []
    for mono in sorted(p.terms, key=lambda m: (m.degree, m.entries)):
        terms.append({"monomial": str(mono), "matrix": _dump_matrix(p.terms[mono])})
    return {"terms": terms}


def _write_output(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _exit(EXIT_PARSE, f"error: {exc}")


def _exit(code: int, message: str):
    """End the command: the message goes to stderr, the code to main."""
    print(message, file=sys.stderr)
    raise SystemExit(code)


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        _exit(EXIT_PARSE, f"error: {exc}")
    try:
        ast = parse_netlist(text)
    except NetlistSyntaxError as exc:
        _exit(EXIT_PARSE, f"parse error: {exc}")
    try:
        return compile_netlist(ast, base_dir=os.path.dirname(path) or ".")
    except (NetlistSemanticError, NetlistReductionError) as exc:
        _exit(EXIT_REDUCE, f"reduction error: {exc}")


# -- reduce ---------------------------------------------------------------


def _probe_times(spec: str | None) -> list[float]:
    """The --probe-times list; anything but finite numbers exits 2."""
    if not spec:
        return [0.0]
    try:
        probes = [float(x) for x in spec.split(",")]
        if all(math.isfinite(t) for t in probes):
            return probes
    except ValueError:
        pass
    _exit(EXIT_REDUCE, f"error: --probe-times must be finite numbers, got {spec!r}")


def cmd_reduce(args) -> int:
    probes = _probe_times(args.probe_times)
    compiled = _load(args.file)
    g = compiled.triple
    bindings = compiled.signals

    h_ok = g.H.dagger().approx_equal(g.H, args.tol)
    s_ok = True
    try:
        validate_triple(g, probe_times=probes, bindings=bindings, tol=args.tol)
    except ValueError:
        s_ok = False
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
        "validation": {
            "probe_times": [_fmt(t) for t in probes],
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
    cover the grid ends the command with exit code 2 before anything
    integrates.
    """
    if not (math.isfinite(step) and step > 0):
        _exit(EXIT_REDUCE, f"error: step must be finite and > 0, got {step!r}")
    if not (math.isfinite(horizon) and horizon >= 0):
        _exit(EXIT_REDUCE, f"error: horizon must be finite and >= 0, got {horizon!r}")
    ratio = horizon / step
    if not (math.isfinite(ratio) and ratio <= MAX_STEPS):
        _exit(EXIT_REDUCE, f"error: horizon / step = {ratio:g} steps exceeds "
                           f"the limit of {MAX_STEPS} steps")
    n = int(round(ratio))
    if abs(n * step - horizon) > 1e-9 * max(1.0, horizon):
        _exit(EXIT_REDUCE, f"error: horizon {horizon!r} is not a whole number of "
                           f"steps of {step!r}")
    times = np.linspace(0.0, n * step, n + 1)
    for name, signal in sorted(bindings.items()):
        span = signal.horizon
        if span is not None and not (span[0] <= 0.0 and times[-1] <= span[1]):
            _exit(EXIT_REDUCE, f"error: signal {name!r} is defined on "
                               f"[{span[0]:g}, {span[1]:g}], which does not cover "
                               f"the grid [0, {times[-1]:g}]")
    return times


# -- simulate -------------------------------------------------------------


def _initial_state(spec: str, space) -> QuantumState:
    if spec == "vacuum":
        return QuantumState.vacuum(space)
    if spec.startswith("fock:"):
        return QuantumState.fock(space, int(spec.split(":", 1)[1]))
    if spec.startswith("coherent:"):
        re, im = (float(x) for x in spec.split(":", 1)[1].split(","))
        return QuantumState.coherent(space, complex(re, im))
    raise ValueError(f"bad initial state spec {spec!r} (vacuum | fock:n | coherent:re,im)")


def _observable(name: str, space):
    kind, _, label = name.partition(":")
    if not label:
        fock_labels = [f.label for f in space.factors if f.kind == "fock"]
        if len(fock_labels) != 1:
            raise ValueError(f"observable {name!r} needs a :label on this space")
        label = fock_labels[0]
    if label not in space:
        raise ValueError(f"observable {name!r}: no factor labeled {label!r} in {space}")
    if kind == "a":
        return annihilator(space, label)
    if kind == "adag":
        return creator(space, label)
    if kind == "n":
        return number_op(space, label)
    raise ValueError(f"unknown observable {name!r} (a | adag | n, optionally :label)")


def cmd_simulate(args) -> int:
    compiled = _load(args.file)
    g = compiled.triple
    space = g.space
    try:
        state = _initial_state(args.initial, space)
        observables = {name: _observable(name, space) for name in args.observable}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REDUCE
    times = _grid(args.horizon, args.step, compiled.signals)
    closed = all(entry.is_zero() for entry in g.L)
    try:
        if closed and state.is_pure:
            log.info("closed system and pure state: Schrodinger integration")
            result = integrate_schrodinger(
                g.H, state, times, compiled.signals, observables,
                leak_threshold=args.leak_threshold,
            )
        else:
            result = integrate_master(
                g, state, times, compiled.signals, observables,
                trace_tol=args.trace_tol, leak_threshold=args.leak_threshold,
            )
    except IntegrationError as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return EXIT_DYNAMICS
    _write_output(args.output, result.to_csv())
    return 0


# -- verify ---------------------------------------------------------------


def _check(name, measured, tolerance, larger_ok=False):
    passed = measured > tolerance if larger_ok else measured < tolerance
    return {
        "name": name,
        "passed": bool(passed),
        "measured": _fmt(measured),
        "tolerance": _fmt(tolerance),
    }


def _dynamics_ladder(g, bindings, times) -> tuple[list, SimulationResult]:
    """Master and Schrodinger runs from vacuum on a closed triple: the
    agreement, purity and output-field checks, plus the Schrodinger run.
    """
    vac = QuantumState.vacuum(g.space)
    master = integrate_master(g, vac, times, bindings, store_states=True)
    schro = integrate_schrodinger(g.H, vac, times, bindings, store_states=True)
    psi_T = schro.states[-1]
    dist = trace_distance(master.states[-1], np.outer(psi_T, psi_T.conj()))
    out_dev = 0.0
    for t in times[:: max(1, (times.size - 1) // 20)]:
        out_dev = max(out_dev, float(np.max(np.abs(output_expectation(g, master, t, bindings)))))
    checks = [
        _check("master_vs_schrodinger_trace_distance", dist, 1e-6),
        _check("purity_drift", float(np.max(np.abs(master.purity - 1.0))), 1e-8),
        _check("output_expectation_zero", out_dev, 1e-8),
    ]
    return checks, schro


def _verify_demo(args) -> tuple[dict, list]:
    """Flagship instance: cavity coupling sqrt(gamma) a, Hamiltonian
    omega0 a†a, Gaussian-pulse drive, fed through the feedback chain."""
    gamma, omega0 = 0.4, 1.0
    cutoff = 15
    space = HilbertSpace.fock("c", cutoff)
    a = annihilator(space, "c")
    L = np.sqrt(gamma) * a
    H0 = omega0 * number_op(space, "c")
    u = GaussianPulseSignal("u", amplitude=0.5, center=3.0, width=0.5)
    bindings = {"u": u}
    # by default the run lasts until the pulse has passed, so the oracle
    # compares a driven amplitude rather than a vacuum one
    horizon = u.center + 6 * u.width if args.horizon is None else args.horizon
    times = _grid(horizon, args.step, bindings)

    g = build_cancellation_chain([L], H0, ["u"], space)
    checks = []

    # algebraic reduction: couplings cancel, H picks up the bilinear term
    # twice over (once per pass of the noise through the coupling)
    l_dev = max(
        (float(np.max(np.abs(c))) for entry in g.L for c in entry.terms.values()),
        default=0.0,
    )
    c = _check("couplings_cancel_exactly", l_dev, 0.0)
    c["passed"] = l_dev == 0.0
    checks.append(c)
    expected_H = OpPolynomial.constant(H0) + 2.0 * (
        OpPolynomial.constant(L.dagger()) * OpPolynomial.of_signal(space, "u")
    ).imag()
    checks.append(_check("hamiltonian_term", g.H.max_coeff_diff(expected_H), args.tol))

    ladder, schro = _dynamics_ladder(g, bindings, times)
    checks += ladder

    # driven-cavity oracle: the chain's Hamiltonian term doubles the
    # drive, so compare against the oracle fed with 2u
    psi_T = schro.states[-1]
    a_T = complex(psi_T.conj() @ a.matrix @ psi_T)
    alpha_T = analytic_driven_cavity(omega0, gamma, lambda s: 2.0 * u(s), times[-1])
    checks.append(_check("driven_cavity_oracle", abs(a_T - alpha_T), 1e-4))
    fid = coherent_fidelity(QuantumState(space, vector=psi_T / np.linalg.norm(psi_T)), alpha_T)
    checks.append(_check("coherent_fidelity", fid, 1.0 - 1e-6, larger_ok=True))
    return {"instance": "demo"}, checks


def _verify_file(args) -> tuple[dict, list]:
    compiled = _load(args.file)
    g = compiled.triple
    bindings = compiled.signals
    horizon = 1.0 if args.horizon is None else args.horizon
    checks = []
    l_zero = all(entry.is_zero() for entry in g.L)
    c = _check("couplings_cancel_exactly", 0.0 if l_zero else 1.0, 0.5)
    c["passed"] = l_zero
    if not l_zero:
        nonzero = [i for i, entry in enumerate(g.L) if not entry.is_zero()]
        c["detail"] = f"nonzero L entries at channels {nonzero}"
    checks.append(c)
    try:
        validate_triple(g, probe_times=[0.0, horizon / 2, horizon], bindings=bindings)
        checks.append(_check("triple_valid", 0.0, 0.5))
    except ValueError as exc:
        c = _check("triple_valid", 1.0, 0.5)
        c["detail"] = str(exc)
        checks.append(c)
    if l_zero:
        checks += _dynamics_ladder(g, bindings, _grid(horizon, args.step, bindings))[0]
    return {"instance": args.file}, checks


def cmd_verify(args) -> int:
    try:
        header, checks = _verify_demo(args) if args.demo else _verify_file(args)
    except IntegrationError as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return EXIT_DYNAMICS
    passed = all(c["passed"] for c in checks)
    bundle = dict(header)
    bundle["checks"] = checks
    bundle["passed"] = passed
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slhforge",
        description="Compose and simulate quantum input-output networks from netlist files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a netlist to its effective triple")
    p.add_argument("file")
    p.add_argument("--probe-times", default=None, help="comma-separated validation times")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("simulate", help="integrate the reduced network")
    p.add_argument("file")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--initial", default="vacuum")
    p.add_argument("--observable", action="append", default=[])
    p.add_argument("--trace-tol", type=float, default=1e-6)
    p.add_argument("--leak-threshold", type=float, default=1e-6)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the verification ladder")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--demo", action="store_true", help="built-in cavity instance")
    p.add_argument("--horizon", type=float, default=None,
                   help="end time (default: 6.0 for --demo, its pulse centre plus six "
                        "widths; 1.0 for a file)")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("SLHFORGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    if args.command == "verify" and not args.demo and args.file is None:
        print("error: give a netlist file or --demo", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except SystemExit as exc:  # loader failures carry the exit code
        return int(exc.code)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
