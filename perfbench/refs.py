"""Independent references for every workload, and the checks that compare
the program's outputs with them.

Nothing here imports slhforge: the ladder operators, the series-product
answers of each corpus family and the coherent-amplitude dynamics are all
rebuilt from the parameters in gen.py with numpy and scipy.  Each check
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import quad, solve_ivp

# chain_pulse tolerances
ALPHA_TOL = 1e-6
DISTANCE_TOL = 1e-6
PURITY_DRIFT_TOL = 1e-8
OUTPUT_TOL = 1e-8
# cascade_dense tolerances
CASCADE_AMPLITUDE_TOL = 1e-6
CASCADE_PURITY_TOL = 1e-6
# reduce_corpus: coefficients agree within REPORT_TOL times the largest
# expected entry (at least 1), since the report prints 13 significant digits
REPORT_TOL = 1e-10


# -- operators ---------------------------------------------------------------


def mode_ops(modes) -> dict[str, np.ndarray]:
    """Annihilators of each Fock mode on the product space, in declaration
    order; ``modes`` is a list of (label, cutoff)."""
    dims = [n + 1 for _, n in modes]
    ops = {}
    for k, (label, n) in enumerate(modes):
        a = np.diag(np.sqrt(np.arange(1.0, n + 1)), 1).astype(complex)
        full = np.eye(1)
        for j, dim in enumerate(dims):
            full = np.kron(full, a if j == k else np.eye(dim))
        ops[label] = full
    return ops


def _dag(x: np.ndarray) -> np.ndarray:
    return x.conj().T


def _im(x: np.ndarray) -> np.ndarray:
    """Operator imaginary part (X - X†)/2i."""
    return (x - _dag(x)) / 2j


def pulse(p: dict):
    """The Gaussian drive u(s) of a chain or cascade instance."""
    amp, center, width = complex(p["amplitude"]), p["center"], p["width"]
    return lambda s: amp * math.exp(-0.5 * ((s - center) / width) ** 2)


# -- chain_pulse -------------------------------------------------------------


def chain_alpha(p: dict, horizon: float) -> complex:
    """alpha(T) = -sqrt(gamma) * int_0^T exp(-i omega0 (T-s)) u(s) ds, the
    closed-form amplitude of the cancellation chain (factor 2 included)."""
    u = pulse(p)
    w = p["omega0"]

    def part(f):
        val, _ = quad(lambda s: f(np.exp(-1j * w * (horizon - s)) * u(s)),
                      0.0, horizon, epsabs=1e-13, epsrel=1e-13, limit=400)
        return val

    return -math.sqrt(p["gamma"]) * complex(part(np.real), part(np.imag))


def check_chain(m: dict, alpha: complex) -> list[str]:
    """``m`` holds the ladder's outputs: ``l_terms`` (monomials left in L),
    ``rho_T`` and ``psi_T`` (final states), ``states`` (stored master
    states), ``distance`` (trace_distance) and ``outputs`` (the
    output_expectation values at the probe times)."""
    fails = []
    if m["l_terms"] != 0:
        fails.append(f"L keeps {m['l_terms']} monomials; the chain must cancel it exactly")
    a = mode_ops([("c", m["rho_T"].shape[0] - 1)])["c"]
    a_master = complex(np.trace(m["rho_T"] @ a))
    a_schro = complex(m["psi_T"].conj() @ a @ m["psi_T"])
    for name, val in (("master", a_master), ("schrodinger", a_schro)):
        if not abs(val - alpha) < ALPHA_TOL:
            fails.append(f"<a>(T) {name} {val:.9g} vs reference {alpha:.9g}")
    if not m["distance"] < DISTANCE_TOL:
        fails.append(f"master-vs-Schrodinger trace distance {m['distance']:.3e}")
    drift = max(abs(np.vdot(r, r).real - 1.0) for r in m["states"])
    if not drift < PURITY_DRIFT_TOL:
        fails.append(f"purity drift {drift:.3e}")
    out = float(np.max(np.abs(m["outputs"])))
    if not out < OUTPUT_TOL:
        fails.append(f"output field expectation {out:.3e} on a closed chain")
    return fails


# -- cascade_dense -----------------------------------------------------------


def cascade_amplitudes(p: dict, times: np.ndarray) -> np.ndarray:
    """Coherent amplitudes (alpha1, alpha2) of the driven cascade on the
    grid, from the linear ODE solved at rtol 1e-11; shape (2, len(times))."""
    g, w = p["gamma"], p["omega"]
    u = pulse(p)
    k = -(1j * w + 0.5 * g)
    rg = math.sqrt(g)

    def rhs(t, y):
        drive = rg * u(t)
        return [k * y[0] - drive, k * y[1] - g * y[0] - drive]

    sol = solve_ivp(rhs, (times[0], times[-1]), [0j, 0j], method="DOP853",
                    t_eval=times, rtol=1e-11, atol=1e-13, max_step=0.05)
    if not sol.success:
        raise RuntimeError(f"cascade reference ODE failed: {sol.message}")
    return sol.y


def parse_csv(text: str) -> dict[str, np.ndarray]:
    lines = text.strip().split("\n")
    names = lines[0].split(",")
    data = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    return {name: data[:, k] for k, name in enumerate(names)}


def _column(cols: dict, name: str) -> np.ndarray:
    if f"{name}_re" in cols:
        return cols[f"{name}_re"] + 1j * cols[f"{name}_im"]
    return cols[name].astype(complex)


def check_cascade(csv_text: str, times: np.ndarray, alphas: np.ndarray) -> list[str]:
    """The simulate CSV against the reference amplitudes on ``times``."""
    try:
        cols = parse_csv(csv_text)
        got = [_column(cols, "a:c1"), _column(cols, "a:c2")]
        t, purity, drift, leak = cols["t"], cols["purity"], cols["trace_drift"], cols["leak"]
    except (KeyError, ValueError, IndexError) as exc:
        return [f"unreadable simulate CSV: {exc!r}"]
    if t.shape != times.shape or np.max(np.abs(t - times)) > 1e-9:
        return ["simulate CSV grid differs from the requested grid"]
    fails = []
    for k in range(2):
        dev = float(np.max(np.abs(got[k] - alphas[k])))
        if not dev < CASCADE_AMPLITUDE_TOL:
            fails.append(f"<a{k + 1}> deviates from the reference ODE by {dev:.3e}")
    dev = float(np.max(np.abs(purity - 1.0)))
    if not dev < CASCADE_PURITY_TOL:
        fails.append(f"purity departs from 1 by {dev:.3e}")
    if not (np.all(np.isfinite(drift)) and np.all(np.isfinite(leak))):
        fails.append("non-finite trace_drift or leak cell")
    return fails


# -- reduce_corpus -----------------------------------------------------------


def expected_triple(spec: dict) -> dict:
    """The family's (S, L, H) from the series product applied by hand, as
    {monomial: matrix} dicts keyed like the report's monomial strings."""
    ops = mode_ops(spec["modes"])
    d = next(iter(ops.values())).shape[0]
    eye = np.eye(d, dtype=complex)
    n = spec["channels"]
    S = [[{"1": eye} if i == j else {} for j in range(n)] for i in range(n)]
    fam = spec["family"]

    def number_sum(weights):
        return sum((w * _dag(ops[m]) @ ops[m] for m, w in weights), np.zeros((d, d), complex))

    if fam in ("cancel", "noisy"):
        c, m = spec["coupling"]
        L = complex(c) * ops[m]
        k = spec.get("blocks", 1)
        u = spec["signal"]
        # each block adds H0 + 2 Im(L† u); a block closes the field exactly
        H = {"1": k * number_sum(spec["H0"]), u: -1j * k * _dag(L), f"conj({u})": 1j * k * L}
        Ls = [{}] if fam == "cancel" else [{"1": L}]
    elif fam == "bsconj":
        T = np.array(spec["T"], dtype=complex)
        T2 = T @ T
        S = [[{"1": T2[i, j] * eye} for j in range(2)] for i in range(2)]
        Lg = [complex(c) * ops[m] for c, m in spec["couplings"]]
        Ls = [{"1": T[i, 0] * Lg[0] + T[i, 1] * Lg[1]} for i in range(2)]
        H = {}
    elif fam == "cascade":
        u = spec["signal"]
        Lc = [math.sqrt(g) * ops[m] for g, _, m in spec["cavities"]]
        const = sum((w * _dag(ops[m]) @ ops[m] for _, w, m in spec["cavities"]),
                    np.zeros((d, d), complex))
        for i in range(len(Lc)):
            for j in range(i):
                const = const + _im(_dag(Lc[i]) @ Lc[j])
        Ls = [{"1": sum(Lc), u: eye}]
        H = {"1": const, u: sum(_dag(x) for x in Lc) / 2j, f"conj({u})": -sum(Lc) / 2j}
    elif fam == "adders":
        Ls = [{}]
        if spec["leftover"] is not None:
            c0, s0 = spec["leftover"]
            Ls = [{s0: complex(c0) * eye}]
        H = {}
    elif fam == "broadcast":
        Ls, H = [], {"1": number_sum(spec["H0"]) + spec["shift"] * eye}
        for (c, m), (e, s) in zip(spec["couplings"], spec["drives"]):
            Li, e = complex(c) * ops[m], complex(e)
            Ls.append({"1": Li, s: e * eye})
            H[s] = H.get(s, 0) + e * _dag(Li) / 2j
            H[f"conj({s})"] = H.get(f"conj({s})", 0) - e.conjugate() * Li / 2j
    else:
        raise ValueError(f"unknown family {fam!r}")
    return {"S": S, "L": Ls, "H": H, "dim": d, "channels": n}


def _poly(entry: dict) -> dict[str, np.ndarray]:
    return {t["monomial"]: np.array([[complex(float(re), float(im)) for re, im in row]
                                      for row in t["matrix"]])
            for t in entry["terms"]}


def _poly_dev(got: dict, want: dict, d: int) -> float:
    """Worst relative coefficient deviation over the union of monomials."""
    zero = np.zeros((d, d))
    worst = 0.0
    for mono in got.keys() | want.keys():
        w = want.get(mono, zero)
        dev = float(np.max(np.abs(got.get(mono, zero) - w)))
        worst = max(worst, dev / max(1.0, float(np.max(np.abs(w)))))
    return worst


def check_report(report_text: str, spec: dict) -> list[str]:
    """A ``reduce`` JSON report against the family's expected triple and
    validation flags."""
    try:
        rep = json.loads(report_text)
        want = expected_triple(spec)
        d, n = want["dim"], want["channels"]
        if rep["space_dim"] != d or rep["channels"] != n:
            return [f"report has dim {rep['space_dim']}, {rep['channels']} channels; "
                    f"expected {d}, {n}"]
        entries = [(f"S[{i}][{j}]", _poly(rep["S"][i][j]), want["S"][i][j])
                   for i in range(n) for j in range(n)]
        entries += [(f"L[{i}]", _poly(rep["L"][i]), want["L"][i]) for i in range(n)]
        entries.append(("H", _poly(rep["H"]), want["H"]))
        val = rep["validation"]
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"unreadable reduce report: {exc!r}"]
    fails = []
    for name, got, exp in entries:
        dev = _poly_dev(got, exp, d)
        if not dev <= REPORT_TOL:
            fails.append(f"{name} deviates from the series product by {dev:.3e}")
    if val.get("h_self_adjoint") is not True or val.get("s_unitary_at_probes") is not True:
        fails.append(f"validation flags {val}")
    l_zero = [not any(np.any(m) for m in entry.values()) for entry in want["L"]]
    if val.get("l_zero") != l_zero:
        fails.append(f"l_zero {val.get('l_zero')} vs expected {l_zero}")
    return fails


def check_error(code, stderr: str, expect: list) -> list[str]:
    """A mutated netlist must end in its documented exit code with the
    positioned message, and must not raise out of the CLI."""
    want_code, want_msg = expect
    fails = []
    if code != want_code:
        fails.append(f"exit code {code!r}, expected {want_code}")
    if want_msg not in stderr:
        fails.append(f"stderr {stderr.strip()!r} lacks {want_msg!r}")
    return fails
