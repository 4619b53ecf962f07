"""Seeded inputs for the three workloads.

Everything here is plain text and parameters drawn with ``random.Random``
seeded from a string, so one seed gives byte-identical files on every
platform.  Nothing here imports slhforge or numpy: the expected answers
live in ``refs.py`` and are computed from the parameters recorded in each
spec, never from the library under test.
"""

from __future__ import annotations

import itertools
import math
import os
import random

SIGNAL_KINDS = ("constant", "complex_exponential", "gaussian_pulse", "sampled")

# chain_pulse: one Fock mode at cutoff 15 (d=16) on a fixed 1e-3 grid.  The
# pulse centre and width are drawn as fractions of CHAIN_HORIZON so that
# centre +- 6 widths lies inside [0, CHAIN_HORIZON]: the grid covers the
# whole pulse and every instance costs the same number of RK4 steps.  The
# amplitude scales with 1 / CHAIN_HORIZON, so the pulse area, and with it
# the final coherent amplitude, does not depend on the horizon.  A short
# grid gives many short ladders per run; a shared machine's fast spells
# last from a fraction of a second to seconds, a short ladder fits in one,
# so the fastest ladder of a run is a steady figure.  Below this horizon
# the drawn pulses get narrow enough to take the master state's purity
# drift towards its 1e-8 check.
CHAIN_CUTOFF = 15
CHAIN_HORIZON = 0.125
CHAIN_STEP = 1e-3
CHAIN_PROBES = 20

# cascade_dense: two cavities at cutoff 13 (d=196), fixed grid.  A short
# horizon (25 steps, about a second a call) gives some forty calls a run,
# so the fastest of them is a steady figure on a shared machine; the pulse
# peaks inside it and is already rising at t=0.
CASCADE_CUTOFF = 13
CASCADE_HORIZON = 1.0
CASCADE_STEP = 0.04

# reduce_corpus: a fixed size schedule per family; the seed draws every
# coefficient, signal kind and mutation site, so the cost of one pass over
# the corpus hardly depends on the seed.  Each slot is (cutoffs, extra),
# where extra is the block count, pair count or channel count.  One file
# reaches d=100: report time grows with d^2 per term, and a few such files
# would take most of a pass, leaving each file few repeats in a run.
CORPUS_SCHEDULE = {
    "cancel": [((2,), 1), ((4,), 2), ((9,), 3), ((2, 2), 5),
               ((3, 3), 4), ((6, 6), 2), ((3, 3, 3), 3), ((9, 9), 5)],
    "noisy": [((3,), 0), ((5,), 0), ((2, 2), 0), ((4, 4), 0),
              ((3, 3, 3), 0), ((7, 7), 0)],
    "bsconj": [((2, 2), 0), ((3, 3), 0), ((4, 4), 0), ((5, 5), 0),
               ((2, 2, 2), 0), ((6, 6), 0)],
    "cascade": [((2,), 0), ((3, 3), 0), ((4, 4), 0), ((2, 2, 2), 0),
                ((3, 3, 3), 0), ((6, 6), 0)],
    "adders": [((2,), 1), ((3,), 2), ((2, 2), 3), ((4,), 2), ((5, 5), 1)],
    "broadcast": [((2,), 2), ((3, 3), 2), ((2, 2, 2), 3), ((4, 4), 3), ((5, 5), 2)],
}
MUTATIONS = ("bad_char", "dangling", "undeclared", "mismatch")
# families whose chain ends upstream in a one-channel component that is not
# a pure Hamiltonian, so appending a two-channel splitter cannot be absorbed
MISMATCH_BASES = ("cancel", "noisy", "cascade", "adders")


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def num(x: float) -> str:
    """Netlist literal for a real number; reads back to the same float."""
    x = float(x)
    return repr(x) if x >= 0 else f"-{repr(-x)}"


def cnum(z: complex) -> str:
    """Netlist expression for a complex number, exact on read-back."""
    z = complex(z)
    return f"({num(z.real)} + {num(z.imag)}i)"


def _polar(rng: random.Random, lo: float, hi: float) -> complex:
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


# -- chain_pulse -------------------------------------------------------------


def chain_instance(seed: int, index: int) -> dict:
    """Parameters of one cancellation-chain instance."""
    rng = _rng("chain_pulse", seed, index)
    return {
        "gamma": rng.uniform(0.2, 0.6),
        "omega0": rng.uniform(0.5, 1.5),
        "amplitude": _polar(rng, 1.0, 2.0) / CHAIN_HORIZON,
        "center": rng.uniform(0.45, 0.55) * CHAIN_HORIZON,
        "width": rng.uniform(0.05, 0.07) * CHAIN_HORIZON,
    }


# -- cascade_dense -----------------------------------------------------------


def cascade_params(seed: int) -> dict:
    rng = _rng("cascade_dense", seed)
    return {
        "gamma": rng.uniform(0.5, 0.8),
        "omega": rng.uniform(0.5, 1.5),
        "amplitude": _polar(rng, 0.3, 0.5),
        "center": rng.uniform(0.4, 0.6),
        "width": rng.uniform(0.3, 0.4),
    }


def cascade_netlist(p: dict) -> str:
    c = CASCADE_CUTOFF
    return (
        "# two damped cavities in cascade, driven by a Gaussian pulse\n"
        f"space fock(cutoff={c}) as c1\n"
        f"space fock(cutoff={c}) as c2\n"
        f"signal u = gaussian_pulse(amplitude={cnum(p['amplitude'])}, "
        f"center={num(p['center'])}, width={num(p['width'])})\n"
        "component D = ADD(u=[u])\n"
        f"component A = CAVITY(gamma={num(p['gamma'])}, omega={num(p['omega'])}, mode=c1)\n"
        f"component B = CAVITY(gamma={num(p['gamma'])}, omega={num(p['omega'])}, mode=c2)\n"
        "network cascade = B <| A <| D\n"
    )


# -- reduce_corpus -----------------------------------------------------------


class _File:
    """Assembles one corpus netlist and its sample tables."""

    def __init__(self, name: str, cutoffs, rng: random.Random, kinds):
        self.name = name
        self.rng = rng
        self.kinds = kinds
        self.modes = [(f"c{i + 1}", n) for i, n in enumerate(cutoffs)]
        self.lines = [f"space fock(cutoff={n}) as {label}" for label, n in self.modes]
        self.csv = {}

    def signal(self, sig: str) -> str:
        kind = next(self.kinds)
        rng = self.rng
        if kind == "constant":
            body = f"constant({cnum(_polar(rng, 0.2, 1.0))})"
        elif kind == "complex_exponential":
            body = (f"complex_exponential(amplitude={cnum(_polar(rng, 0.2, 1.0))}, "
                    f"frequency={num(rng.uniform(0.5, 3.0))}, "
                    f"phase={num(rng.uniform(0.0, 6.0))})")
        elif kind == "gaussian_pulse":
            body = (f"gaussian_pulse(amplitude={cnum(_polar(rng, 0.2, 1.0))}, "
                    f"center={num(rng.uniform(0.5, 2.0))}, "
                    f"width={num(rng.uniform(0.2, 0.8))})")
        else:
            table = f"{self.name}_{sig}.csv"
            rows = ["t,re,im"]
            for k in range(6):
                z = _polar(rng, 0.0, 1.0)
                rows.append(f"{num(0.5 * k)},{num(z.real)},{num(z.imag)}")
            self.csv[table] = "\n".join(rows) + "\n"
            body = f'sampled("{table}")'
        self.lines.append(f"signal {sig} = {body}")
        return sig

    def mode(self) -> str:
        return self.rng.choice(self.modes)[0]

    def text(self, header: str, network: str) -> str:
        return "\n".join([f"# {header}"] + self.lines + [network]) + "\n"


def _number_sum(f: _File, labels) -> tuple[str, list]:
    """`w1 * n(c1) + ...` over the given modes, with the drawn weights."""
    terms = [(label, f.rng.uniform(0.5, 1.5)) for label in labels]
    return " + ".join(f"{num(w)} * n({label})" for label, w in terms), terms


def _cancel(f: _File, blocks: int) -> dict:
    u = f.signal("u")
    h0, weights = _number_sum(f, [label for label, _ in f.modes])
    c = _polar(f.rng, 0.3, 0.8)
    m = f.mode()
    f.lines += [
        f"component H0 = HAM({h0})",
        f"component P = ADD(u=[{u}])",
        f"component M = ADD(u=[-{u}])",
        "component R = BS(T=[[-1]])",
        f"component G = SYS(L=[{cnum(c)} * a({m})])",
    ]
    chain = " <| ".join(["H0 <| P <| R <| G <| R <| M <| G"] * blocks)
    return {"network": f"network chain = {chain}", "blocks": blocks,
            "H0": weights, "coupling": [c, m], "signal": u}


def _noisy(f: _File, _extra) -> dict:
    u = f.signal("u")
    h0, weights = _number_sum(f, [f.mode()])
    c = _polar(f.rng, 0.3, 0.8)
    m = f.mode()
    f.lines += [
        f"component H0 = HAM({h0})",
        f"component P = ADD(u=[{u}])",
        f"component M = ADD(u=[-{u}])",
        f"component G = SYS(L=[{cnum(c)} * a({m})])",
    ]
    return {"network": "network drive = M <| H0 <| G <| P",
            "H0": weights, "coupling": [c, m], "signal": u}


def _bsconj(f: _File, _extra) -> dict:
    theta = f.rng.uniform(0.1, 1.4)
    ct, st = math.cos(theta), math.sin(theta)
    couplings = [[_polar(f.rng, 0.3, 1.0), f.mode()] for _ in range(2)]
    f.lines += [
        f"component X = BS(T=[[{num(ct)}, {num(st)}], [-{num(st)}, {num(ct)}]])",
        "component G = SYS(L=[" + ", ".join(f"{cnum(c)} * a({m})" for c, m in couplings) + "])",
    ]
    return {"network": "network conj = X <| G <| X",
            "T": [[ct, st], [-st, ct]], "couplings": couplings}


def _cascade(f: _File, _extra) -> dict:
    u = f.signal("u")
    f.lines.append(f"component D = ADD(u=[{u}])")
    cavities = []
    for i, (label, _) in enumerate(f.modes):
        g, w = f.rng.uniform(0.1, 1.0), f.rng.uniform(0.5, 1.5)
        cavities.append([g, w, label])
        f.lines.append(f"component C{i + 1} = CAVITY(gamma={num(g)}, omega={num(w)}, mode={label})")
    chain = " <| ".join(f"C{i}" for i in range(len(cavities), 0, -1))
    return {"network": f"network cascade = {chain} <| D",
            "cavities": cavities, "signal": u}


def _adders(f: _File, pairs: int) -> dict:
    names = []
    for i in range(pairs):
        s = f.signal(f"s{i + 1}")
        c = _polar(f.rng, 0.2, 1.0)
        f.lines += [f"component P{i + 1} = ADD(u=[{cnum(c)} * {s}])",
                    f"component M{i + 1} = ADD(u=[-{cnum(c)} * {s}])"]
        names += [f"P{i + 1}", f"M{i + 1}"]
    spec = {"leftover": None}
    if f.rng.random() < 0.5:
        s0 = f.signal("s0")
        c0 = _polar(f.rng, 0.2, 1.0)
        f.lines.append(f"component Q = ADD(u=[{cnum(c0)} * {s0}])")
        names.append("Q")
        spec["leftover"] = [c0, s0]
    spec["network"] = "network pairs = " + " <| ".join(names)
    return spec


def _broadcast(f: _File, channels: int) -> dict:
    signals = [f.signal(f"u{i + 1}") for i in range(min(channels, 2))]
    drives = [[_polar(f.rng, 0.2, 1.0), signals[i % len(signals)]] for i in range(channels)]
    couplings = [[_polar(f.rng, 0.3, 1.0), f.mode()] for _ in range(channels)]
    h0, w0 = _number_sum(f, [f.modes[0][0]])
    h1, w1 = _number_sum(f, [f.modes[-1][0]])
    x = f.rng.uniform(-1.0, 1.0)
    f.lines += [
        f"component H0 = HAM({h0})",
        "component G = SYS(L=[" + ", ".join(f"{cnum(c)} * a({m})" for c, m in couplings) + "])",
        f"component H1 = HAM({num(x)} * I + {h1})",
        "component A = ADD(u=[" + ", ".join(f"{cnum(e)} * {s}" for e, s in drives) + "])",
    ]
    return {"network": "network bcast = H0 <| G <| H1 <| A",
            "H0": w0 + w1, "shift": x, "couplings": couplings, "drives": drives}


_FAMILIES = {"cancel": _cancel, "noisy": _noisy, "bsconj": _bsconj,
             "cascade": _cascade, "adders": _adders, "broadcast": _broadcast}


def corpus(seed: int) -> list[dict]:
    """The corpus: one dict per netlist with ``name``, ``text``, ``csv``
    (sample tables to write beside it) and ``spec`` (what refs.py needs)."""
    # signal kinds round-robin from a drawn offset, so all four appear
    start = _rng("reduce_corpus", seed, "kinds").randrange(len(SIGNAL_KINDS))
    kinds = itertools.cycle(SIGNAL_KINDS[start:] + SIGNAL_KINDS[:start])
    entries = []
    for family, slots in CORPUS_SCHEDULE.items():
        for k, (cutoffs, extra) in enumerate(slots):
            name = f"f{len(entries):02d}_{family}"
            f = _File(name, cutoffs, _rng("reduce_corpus", seed, name), kinds)
            spec = _FAMILIES[family](f, extra)
            network = spec.pop("network")
            spec.update(family=family, modes=f.modes, channels=_channels(family, extra))
            entries.append({"name": name, "text": f.text(f"{family} {k}", network),
                            "csv": f.csv, "spec": spec})
    rng = _rng("reduce_corpus", seed, "mutations")
    for kind in MUTATIONS:
        pool = [e for e in entries if "expect_error" not in e["spec"]
                and (kind != "mismatch" or e["spec"]["family"] in MISMATCH_BASES)]
        entries.append(_mutate(rng.choice(pool), kind, rng))
    return entries


def _channels(family: str, extra: int) -> int:
    if family == "bsconj":
        return 2
    return extra if family == "broadcast" else 1


def _mutate(base: dict, kind: str, rng: random.Random) -> dict:
    """A copy of a valid netlist with one known defect, and the exit code
    and positioned message the CLI documents for it."""
    lines = base["text"].rstrip("\n").split("\n")
    net = len(lines)  # the network statement is always the last line
    head, chain = lines[-1].split(" = ", 1)
    if kind == "bad_char":
        names = chain.split(" <| ")
        cut = rng.randrange(1, len(names))  # every chain has two components or more
        pre = " <| ".join(names[:cut])
        char = rng.choice("?$@!;")
        lines[-1] = f"{head} = {pre} {char} " + " <| ".join(names[cut:])
        col = len(head) + 3 + len(pre) + 2
        expect = (1, f"parse error: line {net}, col {col}: unexpected character {char!r}")
    elif kind == "dangling":
        lines[-1] += " <|"
        expect = (1, f"parse error: line {net + 1}, col 1: syntax error, found end of input")
    elif kind == "undeclared":
        lines[-1] = f"{head} = {chain.rsplit(' <| ', 1)[0]} <| Z9"
        expect = (2, f"reduction error: line {net}, col 1: undeclared component 'Z9' in network")
    else:
        lines.insert(-1, "component W = BS(T=[[0, 1], [1, 0]])")
        lines[-1] += " <| W"
        expect = (2, "reduction error: channel-count mismatch: 1 vs 2")
    return {"name": f"m_{kind}_{base['name']}", "text": "\n".join(lines) + "\n",
            "csv": {},  # the base file's sample tables sit in the same directory
            "spec": {"family": base["spec"]["family"], "expect_error": list(expect)}}


# -- files -------------------------------------------------------------------


def write_corpus(entries: list[dict], out_dir: str) -> list[str]:
    """Write the netlists and their sample tables; return netlist paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for e in entries:
        for table, text in e["csv"].items():
            _write(os.path.join(out_dir, table), text)
        path = os.path.join(out_dir, e["name"] + ".slh")
        _write(path, e["text"])
        paths.append(path)
    return paths


def _write(path: str, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
