"""Compare what the command line prints under this tree's package and another's.

    python3 tools/compare_cli.py OTHER_TREE

Every corpus netlist (``tests/netlists/*.slh``) goes through ``reduce``,
``simulate --horizon 0.5 --step 0.01`` and ``verify --horizon 0.3 --step
0.01``.  When the file declares a single Fock space, ``simulate`` runs
three more times: with ``--observable a``, with ``--initial fock:1
--observable n`` and with ``--initial coherent:0.3,0.1 --observable
adag``.  The last two start with population near the corpus cutoffs, so
they pass ``--leak-threshold inf``: the leak column records the
truncation leak instead of aborting the run, and the ``n`` and ``adag``
columns get compared.  Below d = 23 a run diagnoses its states in
blocks of 32 (``dynamics._ring_size``), so ``simulate --step 0.01`` runs
at horizons 0.31, 0.32 and 0.33 (32 grid points, a full block, then one
and two past it) on ``cavity.slh``, a master run, from vacuum with
``--observable a`` and from ``--initial coherent:0.3,0.1`` with
``--observable a --leak-threshold inf``, and on ``cancel_chain.slh``, a
Schrödinger run.  The corpus stays below d = 100, so the tool also
writes two netlists on two modes at cutoff 9 (d = 100, the smallest space
stored as CSR, so its reduction, K fold, observables and generator run
on CSR matrices) to a temporary directory.  The open two-cavity cascade runs ``reduce``,
``simulate --horizon 0.2 --step 0.04 --observable a:c1`` and ``verify
--horizon 0.2 --step 0.04``.  The closed cancellation chain, whose
Schrödinger runs take the CSR matrix-vector product, runs ``simulate
--horizon 0.2 --step 0.04 --observable a:c1`` and ``verify --horizon 0.2
--step 0.01`` (at step 0.04 its ``purity_drift`` check fails).  The
corpus scatters only by ±1, 0 and the swap, so a third netlist puts a
complex two-channel T around a two-channel ``SYS`` and an ``ADD`` on two
modes at cutoff 2; it runs ``reduce``, ``simulate --horizon 0.5 --step
0.01 --observable a:c1 --leak-threshold inf`` (its drive fills the top
Fock levels) and ``verify --horizon 0.3 --step 0.01``; the same netlist at
cutoff 9 (d = 100) runs ``simulate --horizon 0.2 --step 0.04 --observable
a:c1``, the CSR master stage with two live couplings.  The benchmark's
shape, the same cascade at cutoff 13 (d = 196), runs ``reduce`` (its
report densifies each CSR coefficient to print it), ``simulate --horizon
0.2 --step 0.04 --observable a:c1 --observable a:c2`` (two observables on
the space whose run hands its model over to the integrator and folds K,
as the ``cascade_dense`` workload runs it) and ``verify --horizon 0.2
--step 0.04`` (which validates the CSR triple and refuses it as open).  Two netlists at
cutoff 2 reach the model rules' edges: two ``HAM`` components each
within the default tolerance of self-adjoint, whose sum is not, run
``reduce`` (exit 3, its report reads ``h_self_adjoint: false``),
``simulate --horizon 0.1 --step 0.01`` and ``verify --horizon 0.1 --step
0.01`` (both refuse the triple); a pair of couplings s·a and −s·a with a
complex s runs ``reduce`` (its H cancels exactly).  A netlist on two
modes at cutoff 2 writes every kind of scalar argument, the gammas and
omegas of two ``CAVITY`` components, a one-channel ``BS`` phase and the
arguments of a ``gaussian_pulse`` and a ``constant`` signal, with
complex literals, negation (``-0`` too), ``sqrt``, sums, differences,
products and ``dagger``; it runs ``reduce`` and ``simulate --horizon 0.5
--step 0.01 --observable a:c1 --observable n:c2 --leak-threshold inf``,
and the same netlist at cutoff 9 (d = 100, a space stored as CSR) runs
``reduce`` and that ``simulate`` at ``--horizon 0.2 --step 0.04``.  Four
netlists on one mode put an operator, a signal, an undeclared signal and
a complex gamma in a scalar position, and ``reduce`` refuses each at its
position.  Then ``verify --demo --step 0.002`` and each script under
``demos/`` run.
Every run happens twice, once with this tree's ``src/`` on PYTHONPATH and
once with OTHER_TREE's, on the same netlists and demo scripts, from this
tree's root, so only the package differs.

A run is compared on its stdout, stderr and exit code, whatever the
code is.  Each run whose stdout, stderr or exit code differs is printed
with the start of a unified diff.  The exit status is 0 when nothing
differs and 1 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIFF_LINES = 12  # diff lines shown per differing stream

# two damped cavities in cascade at cutoff 9: d = 100
CASCADE = """\
space fock(cutoff=9) as c1
space fock(cutoff=9) as c2
signal u = gaussian_pulse(amplitude=(0.4 + 0.1i), center=0.1, width=0.1)
component D = ADD(u=[u])
component A = CAVITY(gamma=0.6, omega=1.0, mode=c1)
component B = CAVITY(gamma=0.6, omega=1.0, mode=c2)
network cascade = B <| A <| D
"""

# the same cascade at cutoff 13: d = 196, the size the benchmark runs
CASCADE_D196 = CASCADE.replace("cutoff=9", "cutoff=13")

# the noise-cancellation chain on the same space: closed, so its
# Schrödinger runs take the CSR matrix-vector product
CLOSED = """\
space fock(cutoff=9) as c1
space fock(cutoff=9) as c2
signal u = gaussian_pulse(amplitude=(0.4 + 0.1i), center=0.1, width=0.1)
component H0 = HAM(n(c1) + 0.7 * n(c2))
component P = ADD(u=[u])
component M = ADD(u=[-u])
component R = BS(T=[[-1]])
component G = SYS(L=[sqrt(0.4) * a(c1)])
network closed = H0 <| P <| R <| G <| R <| M <| G
"""

# a complex two-channel T (a rotation by 0.3 with i on the off-diagonal)
# on both sides of a coupling and an adder: d = 9
COMPLEX_T = """\
space fock(cutoff=2) as c1
space fock(cutoff=2) as c2
signal u = gaussian_pulse(amplitude=(0.4 + 0.1i), center=0.1, width=0.1)
component X = BS(T=[[0.955336489125606, 0.29552020666133955i], [0.29552020666133955i, 0.955336489125606]])
component G = SYS(L=[sqrt(0.4) * a(c1), sqrt(0.3) * a(c2)])
component A = ADD(u=[u, 0.5 * u])
network mix = X <| G <| A <| X
"""

# the same at cutoff 9: d = 100, so its master run is CSR with two couplings
COMPLEX_T_D100 = COMPLEX_T.replace("cutoff=2", "cutoff=9")


# each HAM is 8e-11 from self-adjoint, within the default 1e-10; their
# sum is 1.6e-10 from it
TWO_HAMS = """\
space fock(cutoff=2) as c
component H1 = HAM(n(c) + 4e-11i * I)
component H2 = HAM(n(c) + 4e-11i * I)
network m = H1 <| H2
"""

# couplings s·a and −s·a: L and Im(L2† L1) = −|s|² Im(a†a) cancel exactly
OPPOSITE_COUPLINGS = """\
space fock(cutoff=2) as c
component P = SYS(L=[(0.3+0.4i) * a(c)])
component M = SYS(L=[-(0.3+0.4i) * a(c)])
network m = P <| M
"""

# every kind of scalar argument, written with complex literals, negation
# (-0 too), sqrt, sums, differences, products and dagger: the gammas and
# omegas of two CAVITYs, a one-channel BS phase, and the arguments of a
# gaussian_pulse and a constant signal; d = 9
SCALARS = """\
space fock(cutoff=2) as c1
space fock(cutoff=2) as c2
signal u = gaussian_pulse(amplitude=-(0.3 - 0.2i) * dagger(1 + 0.5i), center=sqrt(0.01) + 0.05 - -0, width=(0.2 - 0.1) * 1)
signal v = constant(dagger(-0.1i) + -0 * 2i - (0.05 + 0.02i))
component A = CAVITY(gamma=sqrt(0.25) * 0.8 - -0, omega=-(0.5 - 1.5) * dagger(1), mode=c1)
component K = CAVITY(gamma=(0.3 + 0i) * 2 - 0.1, omega=-0 + 0.7 * -(-1), mode=c2)
component P = BS(T=[[dagger(0.6 - 0.8i) - -0 * 1i]])
component D = ADD(u=[u + v])
network s = K <| P <| A <| D
"""

# the same at cutoff 9: d = 100, where the file's space is stored as CSR
SCALARS_D100 = SCALARS.replace("cutoff=2", "cutoff=9")

# a value of each kind that a scalar position refuses, one file each
SCALAR_ERRORS = {
    "operator": "component A = CAVITY(gamma=0.4 * a(c), omega=1)",
    "signal": "signal u = constant(0.1)\ncomponent A = CAVITY(gamma=0.4, omega=2 * u)",
    "undeclared_signal": "component A = BS(T=[[w]])",
    "complex_gamma": "component A = CAVITY(gamma=0.4 + 0.1i, omega=1)",
}


def runs(tmp: Path) -> list[list[str]]:
    """Each run's argv, relative to the tree's root; the d = 100 and
    d = 196, the two complex-T, the two cutoff-2, the two scalar-argument
    and the four scalar-error netlists are written to ``tmp``."""
    cli = [sys.executable, "-m", "slhforge.cli"]
    out = []
    for path in sorted((ROOT / "tests" / "netlists").glob("*.slh")):
        name = str(path.relative_to(ROOT))
        spaces = re.findall(r"^space\s+(\w+)", path.read_text(), flags=re.M)
        simulate = cli + ["simulate", name, "--horizon", "0.5", "--step", "0.01"]
        out += [cli + ["reduce", name], simulate]
        if spaces == ["fock"]:
            leaky = simulate + ["--leak-threshold", "inf"]
            out += [simulate + ["--observable", "a"],
                    leaky + ["--initial", "fock:1", "--observable", "n"],
                    leaky + ["--initial", "coherent:0.3,0.1", "--observable", "adag"]]
        out.append(cli + ["verify", name, "--horizon", "0.3", "--step", "0.01"])
    # below d = 23 the ring holds 32 states: 32 grid points fill it, 33
    # and 34 run one and two past it
    cavity, chain = (str(Path("tests", "netlists", f)) for f in ("cavity.slh", "cancel_chain.slh"))
    for horizon in ("0.31", "0.32", "0.33"):
        edge = ["--horizon", horizon, "--step", "0.01"]
        out += [cli + ["simulate", cavity, *edge, "--observable", "a"],
                cli + ["simulate", cavity, *edge, "--initial", "coherent:0.3,0.1",
                       "--observable", "a", "--leak-threshold", "inf"],
                cli + ["simulate", chain, *edge]]
    cascade = tmp / "cascade_d100.slh"
    cascade.write_text(CASCADE)
    grid = ["--horizon", "0.2", "--step", "0.04"]
    out += [cli + ["reduce", str(cascade)],
            cli + ["simulate", str(cascade), *grid, "--observable", "a:c1"],
            cli + ["verify", str(cascade), *grid]]
    cascade_d196 = tmp / "cascade_d196.slh"
    cascade_d196.write_text(CASCADE_D196)
    out += [cli + ["reduce", str(cascade_d196)],
            cli + ["simulate", str(cascade_d196), *grid,
                   "--observable", "a:c1", "--observable", "a:c2"],
            cli + ["verify", str(cascade_d196), *grid]]
    closed = tmp / "closed_d100.slh"
    closed.write_text(CLOSED)
    out += [cli + ["simulate", str(closed), *grid, "--observable", "a:c1"],
            cli + ["verify", str(closed), "--horizon", "0.2", "--step", "0.01"]]
    mix = tmp / "complex_t.slh"
    mix.write_text(COMPLEX_T)
    out += [cli + ["reduce", str(mix)],
            cli + ["simulate", str(mix), "--horizon", "0.5", "--step", "0.01",
                   "--observable", "a:c1", "--leak-threshold", "inf"],
            cli + ["verify", str(mix), "--horizon", "0.3", "--step", "0.01"]]
    mix_d100 = tmp / "complex_t_d100.slh"
    mix_d100.write_text(COMPLEX_T_D100)
    out.append(cli + ["simulate", str(mix_d100), *grid, "--observable", "a:c1"])
    hams = tmp / "two_hams.slh"
    hams.write_text(TWO_HAMS)
    short = ["--horizon", "0.1", "--step", "0.01"]
    out += [cli + ["reduce", str(hams)], cli + ["simulate", str(hams), *short],
            cli + ["verify", str(hams), *short]]
    opposite = tmp / "opposite_couplings.slh"
    opposite.write_text(OPPOSITE_COUPLINGS)
    out.append(cli + ["reduce", str(opposite)])
    for name, text, span in (("scalars", SCALARS, ["--horizon", "0.5", "--step", "0.01"]),
                             ("scalars_d100", SCALARS_D100, grid)):
        path = tmp / f"{name}.slh"
        path.write_text(text)
        out += [cli + ["reduce", str(path)],
                cli + ["simulate", str(path), *span, "--observable", "a:c1",
                       "--observable", "n:c2", "--leak-threshold", "inf"]]
    for name, body in SCALAR_ERRORS.items():
        path = tmp / f"scalar_{name}.slh"
        path.write_text(f"space fock(cutoff=2) as c\n{body}\nnetwork m = A\n")
        out.append(cli + ["reduce", str(path)])
    out.append(cli + ["verify", "--demo", "--step", "0.002"])
    out += [[sys.executable, str(p.relative_to(ROOT))]
            for p in sorted((ROOT / "demos").glob("*.py"))]
    return out


def run(argv: list[str], tree: Path) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("SLHFORGE_LOG", None)
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", type=Path, help="root of the tree to compare against")
    other = parser.parse_args(argv).other.resolve()
    if not (other / "src" / "slhforge").is_dir():
        parser.error(f"{other} has no src/slhforge")

    with tempfile.TemporaryDirectory() as tmp:
        all_runs = runs(Path(tmp))
        differing = sum(compare(argv, other) for argv in all_runs)
    print(f"{differing} of {len(all_runs)} runs differ")
    return 1 if differing else 0


def compare(argv: list[str], other: Path) -> bool:
    """Run argv under both trees; print the run and return True if it differs."""
    here, there = run(argv, ROOT), run(argv, other)
    if here == there:
        return False
    print("DIFF " + " ".join(argv[3:] if argv[1:3] == ["-m", "slhforge.cli"] else argv[1:]))
    if here[0] != there[0]:
        print(f"  exit code: {there[0]} (other) vs {here[0]} (this)")
    for stream, a, b in (("stdout", there[1], here[1]), ("stderr", there[2], here[2])):
        if a == b:
            continue
        diff = list(difflib.unified_diff(a.splitlines(), b.splitlines(), "other", "this",
                                         lineterm="", n=0))
        print(f"  {stream}:")
        print("\n".join("    " + line for line in diff[:DIFF_LINES]))
        if len(diff) > DIFF_LINES:
            print(f"    … {len(diff) - DIFF_LINES} more diff lines")
    return True


if __name__ == "__main__":
    raise SystemExit(main())
