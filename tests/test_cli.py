"""End-to-end checks of the reduce / simulate / verify commands."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from slhforge import cli
from slhforge.cli import main
from slhforge.network import SLHTriple
from slhforge.signals import GaussianPulseSignal, OpPolynomial

NETLISTS = Path(__file__).parent / "netlists"
CORPUS_TWO_MODE = (NETLISTS / "two_mode.slh").read_text()


MINIMAL = """\
space fock(cutoff=2) as c
component G = SYS(L=[sqrt(0.4) * a(c)])
network main = G
"""

CLOSED = """\
space fock(cutoff=5) as c
component H0 = HAM(n(c))
network main = H0
"""

OVERFLOW = """\
space fock(cutoff=4) as c
signal u = constant(1e200)
component A = ADD(u=[u])
component G = SYS(L=[a(c)])
network main = G <| A
"""


# each HAM is 8e-11 from self-adjoint, within the default 1e-10; their
# sum is 1.6e-10 from it
TWO_HAMS = """\
space fock(cutoff=2) as c
component H1 = HAM(n(c) + 4e-11i * I)
component H2 = HAM(n(c) + 4e-11i * I)
network m = H1 <| H2
"""


@pytest.fixture
def netlist(tmp_path):
    def write(text, name="net.slh"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


# -- reduce ----------------------------------------------------------------


def test_reduce_writes_a_deterministic_report(netlist, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["reduce", netlist(MINIMAL), "-o", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["network"] == "main"
    assert report["channels"] == 1
    assert report["space_dim"] == 3
    assert report["validation"]["h_self_adjoint"] is True
    assert report["validation"]["s_unitary_at_probes"] is True
    assert report["validation"]["l_zero"] == [False]
    # floats are fixed-width strings, so the report is byte-stable
    first = report["L"][0]["terms"][0]["matrix"][0][1]
    assert first == ["6.324555320337e-01", "0.000000000000e+00"]
    rc2 = main(["reduce", netlist(MINIMAL), "-o", str(tmp_path / "r2.json")])
    assert rc2 == 0
    assert (tmp_path / "r2.json").read_bytes() == out.read_bytes()


def test_reduce_to_stdout(netlist, capsys):
    rc = main(["reduce", netlist(MINIMAL)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["channels"] == 1


def test_reduce_parse_error_exits_1(netlist, capsys):
    rc = main(["reduce", netlist("network main = G <|\n")])
    assert rc == 1
    assert "parse error" in capsys.readouterr().err


def test_reduce_semantic_error_exits_2(netlist, capsys):
    rc = main(["reduce", netlist("space fock(cutoff=2) as c\n"
                                 "component B = BS(T=[[2]])\n"
                                 "network main = B\n")])
    assert rc == 2
    assert "reduction error" in capsys.readouterr().err


def test_reduce_missing_file_exits_1(tmp_path, capsys):
    rc = main(["reduce", str(tmp_path / "absent.slh")])
    assert rc == 1


def test_reduce_on_a_one_state_space(netlist, capsys):
    # H = Im(L2† L1) = Im(-0.25i · 0.5) = -0.125; the 1×1 conjugate transpose
    # is a new array, not the frozen coefficient
    rc = main(["reduce", netlist("space generic(dim=1) as q\n"
                                 "component S1 = SYS(L=[0.5 * I])\n"
                                 "component S2 = SYS(L=[0.25i * I])\n"
                                 "network main = S2 <| S1\n")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["H"]["terms"] == [{"monomial": "1", "matrix": [[
        ["-1.250000000000e-01", "0.000000000000e+00"]]]}]
    assert report["L"][0]["terms"][0]["matrix"] == [[
        ["5.000000000000e-01", "2.500000000000e-01"]]]


def test_reduce_prints_a_zero_without_its_sign(netlist, capsys):
    # BS(-1) scales the coupling by -1, which turns its zero entries into -0.0
    rc = main(["reduce", netlist("space fock(cutoff=2) as c\n"
                                 "component B = BS(T=[[-1]])\n"
                                 "component G = SYS(L=[a(c)])\n"
                                 "network main = B <| G\n")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.000000000000e+00" in out
    assert "-0.000000000000e+00" not in out


def test_reduce_cancels_opposite_couplings_into_an_h_with_no_terms(netlist, capsys):
    # Im(L2† L1) = -|s|² Im(a†a) = 0: conj(s)·s rounds to a real number
    rc = main(["reduce", netlist("space fock(cutoff=2) as c\n"
                                 "component P = SYS(L=[(0.3+0.4i) * a(c)])\n"
                                 "component M = SYS(L=[-(0.3+0.4i) * a(c)])\n"
                                 "network m = P <| M\n")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["H"] == {"terms": []}


def test_reduce_checks_scattering_at_t_0_only(capsys):
    # T is static, so the report lists t = 0 and takes no probe times
    with pytest.raises(SystemExit) as exc:
        main(["reduce", str(NETLISTS / "cavity.slh"), "--probe-times", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --probe-times 0" in capsys.readouterr().err
    assert main(["reduce", str(NETLISTS / "cavity.slh")]) == 0
    validation = json.loads(capsys.readouterr().out)["validation"]
    assert validation["probe_times"] == ["0.000000000000e+00"]


# -- simulate --------------------------------------------------------------


def test_simulate_closed_system_csv(netlist, tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["simulate", netlist(CLOSED), "--horizon", "1.0", "--step", "0.01",
               "--observable", "n", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,n,trace_drift,purity,leak"
    assert len(lines) == 102
    # closed evolution from vacuum keeps n at zero
    assert float(lines[-1].split(",")[1]) == pytest.approx(0.0, abs=1e-12)


def test_simulate_open_system_runs_the_master_equation(netlist, tmp_path):
    text = MINIMAL.replace("cutoff=2", "cutoff=5")
    out = tmp_path / "run.csv"
    rc = main(["simulate", netlist(text), "--horizon", "0.5", "--step", "0.01",
               "--initial", "fock:1", "--observable", "n", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    n0 = float(lines[1].split(",")[1])
    nT = float(lines[-1].split(",")[1])
    assert n0 == pytest.approx(1.0)
    assert nT == pytest.approx(pytest.approx(2.718281828459045 ** (-0.4 * 0.5)))


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(netlist, capsys):
    # main reuses one parser; an appended --observable starts from an empty
    # list at every call, and a bad argument still exits 2 with its usage
    assert cli.build_parser() is cli.build_parser()
    path = netlist(CLOSED)
    headers = []
    for extra in (["--observable", "n"], [], ["--observable", "a", "--observable", "n"], []):
        assert main(["simulate", path, "--horizon", "0.02", "--step", "0.01", *extra]) == 0
        headers.append(capsys.readouterr().out.splitlines()[0])
    assert headers == ["t,n,trace_drift,purity,leak", "t,trace_drift,purity,leak",
                       "t,a,n,trace_drift,purity,leak", "t,trace_drift,purity,leak"]
    with pytest.raises(SystemExit) as exc:
        main(["simulate", path])
    assert exc.value.code == 2
    assert "the following arguments are required: --horizon" in capsys.readouterr().err


def test_simulate_bad_initial_spec(netlist, capsys):
    rc = main(["simulate", netlist(CLOSED), "--horizon", "0.1",
               "--initial", "thermal:3"])
    assert rc == 2
    assert "initial state" in capsys.readouterr().err


BAD_SPEC = "error: bad initial state spec {!r} (vacuum | fock:n | coherent:re,im)\n"


# a spec that does not parse gets the one spec line; a state that cannot be
# built keeps its own message
@pytest.mark.parametrize("spec, err", [
    (spec, BAD_SPEC.format(spec))
    for spec in ["foo", "fock", "fock:", "fock:1.5", "coherent:1", "coherent:1,2,3",
                 "coherent:a,b", "vacuum:"]
] + [
    ("fock:9", "error: occupation 9 out of range for factor 'c'\n"),
    ("fock:-1", "error: occupation -1 out of range for factor 'c'\n"),
    ("coherent:nan,0", "error: coherent amplitude (nan+0j) is not finite\n"),
    ("coherent:1e200,0", "error: coherent amplitude (1e+200+0j) overflows: the truncated "
                         "state's norm is not finite\n"),
])
def test_simulate_initial_spec_errors_exit_2_with_one_line(spec, err, netlist, capsys):
    rc = main(["simulate", netlist(CLOSED), "--horizon", "0.1", "--initial", spec])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == err
    assert captured.out == ""


@pytest.mark.parametrize("name", ["n:", ":c"])
def test_simulate_observable_with_an_empty_kind_or_label_exits_2(name, netlist, capsys):
    rc = main(["simulate", netlist(CLOSED), "--horizon", "0.1", "--observable", name])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: unknown observable {name!r} "
                                       "(a | adag | n, optionally :label)\n")


def test_simulate_bad_observable(netlist, capsys):
    rc = main(["simulate", netlist(CLOSED), "--horizon", "0.1",
               "--observable", "x"])
    assert rc == 2


def test_simulate_leak_abort_exits_4(netlist, capsys):
    text = ("space fock(cutoff=2) as c\n"
            "component C = CAVITY(gamma=0.1, omega=1.0)\n"
            "network main = C\n")
    rc = main(["simulate", netlist(text), "--horizon", "0.5", "--step", "0.01",
               "--initial", "coherent:1,0", "--observable", "n"])
    assert rc == 4
    assert "integration aborted" in capsys.readouterr().err


def test_simulate_non_finite_state_exits_4(netlist, capsys):
    # the abort reports the overflow; numpy must not warn about it first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", netlist(OVERFLOW), "--horizon", "0.003", "--step", "0.001"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "integration aborted" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["simulate", str(NETLISTS / "cavity.slh"), "--horizon", "0.1", "--step", "0"],
    ["simulate", str(NETLISTS / "cavity.slh"), "--horizon", "-1"],
    ["verify", "--demo", "--step", "0"],
    ["simulate", str(NETLISTS / "sampled_drive.slh"), "--horizon", "10", "--step", "0.01"],
    # rejected from the ratio alone: neither grid is ever allocated
    ["simulate", str(NETLISTS / "cavity.slh"), "--horizon", "1e300", "--step", "1e-300"],
    ["simulate", str(NETLISTS / "cavity.slh"), "--horizon", "1e9", "--step", "1e-3"],
    # 0.5 / 0.3 rounds to 2 steps, which would end the run at 0.6
    ["simulate", str(NETLISTS / "cavity.slh"), "--horizon", "0.5", "--step", "0.3"],
    # an open triple is never integrated, but its grid is still checked
    ["verify", str(NETLISTS / "cavity.slh"), "--step", "0"],
    ["verify", str(NETLISTS / "cavity.slh"), "--horizon", "nan"],
], ids=["zero_step", "negative_horizon", "demo_zero_step", "past_sampled_table",
        "overflowing_step_count", "step_count_over_max", "horizon_not_whole_steps",
        "verify_open_zero_step", "verify_open_nan_horizon"])
def test_bad_time_grid_exits_2(argv, capsys):
    rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv, code", [
    (["reduce", "{latin1}"], 1),
    (["reduce", "{cavity}", "-o", "{tmp}/absent/x.json"], 1),
    (["simulate", "{cavity}", "--horizon", "0.1", "--step", "0.01",
      "-o", "{tmp}/absent/x.csv"], 1),
    (["verify", "{cavity}", "--horizon", "0.1", "--step", "0.01",
      "-o", "{tmp}/absent/x.json"], 1),
    (["simulate", "{cavity}", "--horizon", "0.1", "--initial", "coherent:nan,0"], 2),
    (["simulate", "{cavity}", "--horizon", "0.1", "--initial", "coherent:1e200,0"], 2),
    # a tolerance flag is checked before the netlist is read
    (["reduce", "{latin1}", "--tol", "nan"], 2),
    (["reduce", "{cavity}", "--tol=-1e-10"], 2),
    (["verify", "{cavity}", "--tol", "nan"], 2),
    (["simulate", "{cavity}", "--horizon", "0.1", "--trace-tol", "nan"], 2),
    (["simulate", "{cavity}", "--horizon", "0.1", "--leak-threshold", "-1"], 2),
], ids=["input_not_utf8",
        "reduce_output_unwritable", "simulate_output_unwritable", "verify_output_unwritable",
        "coherent_not_finite", "coherent_norm_overflows", "reduce_tol_nan",
        "reduce_tol_negative", "verify_tol_nan", "trace_tol_nan", "leak_threshold_negative"])
def test_bad_arguments_and_files_exit_with_their_code(argv, code, tmp_path, capsys):
    (tmp_path / "latin1.slh").write_bytes(b"\xff\xfe")
    paths = {"cavity": NETLISTS / "cavity.slh", "latin1": tmp_path / "latin1.slh",
             "tmp": tmp_path}
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "absent").exists()


TOO_DEEP = "expression nested too deeply"


# the expression starts at col 19; each error points at the offending token
@pytest.mark.parametrize("expr, col, message", [
    (" + ".join(["n(c)"] * 1200), 19 + len("n(c) + ") * 100 + len("n(c) "), TOO_DEEP),
    ("-" * 1200 + "n(c)", 19 + 100, TOO_DEEP),
    ("(" * 300 + "n(c)" + ")" * 300, 19 + 100, TOO_DEEP),
    ("1e999 * n(c)", 19, "number 1e999 is not finite"),
], ids=["long_sum", "many_unary_minus", "deep_parentheses", "infinite_literal"])
def test_rejected_expressions_exit_1_with_a_position(expr, col, message, netlist, capsys):
    rc = main(["reduce", netlist(f"space fock(cutoff=2) as c\ncomponent H = HAM({expr})\n"
                                 "network main = H\n")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"parse error: line 2, col {col}: {message}\n"
    assert captured.out == ""


# the first '*' overflows: the error points at it, and numpy stays silent
@pytest.mark.parametrize("component", [
    "H = HAM(1e200 * 1e200 * n(c))",
    "G = SYS(L=[1e200 * 1e200 * a(c) - 1e200 * 1e200 * a(c)])",
    "G = SYS(L=[(1e200 + 1e200i) * (1e200 + 1e200i) * a(c)])",
], ids=["ham_product", "sys_difference", "complex_product"])
def test_overflowing_expression_exits_2_at_its_operator(component, netlist, capsys):
    col = len("component ") + component.index("*") + 1
    text = ("space fock(cutoff=2) as c\n"
            "signal u = constant(1)\n"
            "component A = ADD(u=[u])\n"
            f"component {component}\n"
            f"network main = {component[0]} <| A\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["reduce", netlist(text)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == (f"reduction error: line 4, col {col}: "
                            "'*' overflows: its value is not finite\n")
    assert captured.out == ""


def test_overflowing_series_product_exits_2_naming_the_component(netlist, capsys):
    text = ("space fock(cutoff=2) as c\n"
            "component G = SYS(L=[1e200 * a(c)])\n"
            "component H = HAM(1e200 * n(c))\n"
            "network main = H <| G <| G\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["reduce", netlist(text)])
    assert rc == 2
    captured = capsys.readouterr()
    # G <| G is the first product, and its Im(L†L) term overflows
    assert captured.err == ("reduction error: overflow: the running product is not finite, "
                            "composing 'G' at line 4, col 21\n")
    assert captured.out == ""


def test_overflowing_component_exits_2_naming_it(netlist, capsys):
    text = ("space fock(cutoff=2) as c\n"
            "component A = CAVITY(gamma=1, omega=1e308, mode=c)\n"
            "network main = A\n")
    # omega * a†a holds 2 * 1e308 at the top Fock level
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["reduce", netlist(text)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == ("reduction error: line 2, col 1: "
                            "component 'A' overflows: its value is not finite\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv, text, code, line", [
    (["reduce"], "space fock(cutoff=0) as c\ncomponent H = HAM(n(c))\nnetwork main = H\n",
     2, "reduction error: line 1, col 1: cutoff must be >= 1, got 0"),
    (["reduce"], "space fock(cutoff=2) as c\ncomponent B = BS(T=[[1, 0], [0]])\n"
     "network main = B\n",
     2, "reduction error: line 2, col 1: BS matrix must be square"),
    (["reduce"], "space fock(cutoff=2) as c\nspace fock(cutoff=2) as d\n"
     "component C = CAVITY(gamma=1, omega=1)\nnetwork main = C\n",
     2, "reduction error: line 3, col 1: "
        "CAVITY needs mode= when there is not exactly one Fock factor"),
    (["reduce"], "space fock(cutoff=2) as c\n"
     "signal u = gaussian_pulse(amplitude=1, center=0, width=0)\n"
     "component A = ADD(u=[u])\nnetwork main = A\n",
     2, "reduction error: line 2, col 1: pulse width must be positive"),
    (["reduce"], "space fock(cutoff=2) as c\nsignal u = constant(1)\n"
     "component G = SYS(L=[u * u * u * u * u * a(c)])\nnetwork main = G <| G\n",
     2, "reduction error: monomial u^5*conj(u)^5 exceeds degree cap 8, "
        "composing 'G' at line 4, col 16"),
    (["verify", "--horizon", "0.01", "--step", "0.001"],
     "space fock(cutoff=2) as c\ncomponent H = HAM(1e200 * (a(c) + adag(c)))\n"
     "network main = H\n",
     4, "integration aborted: non-finite state at t=0.001 (value nan)"),
    # d = 3001² would ask for dense d×d arrays of hundreds of TiB
    (["reduce"], "space fock(cutoff=3000) as a\nspace fock(cutoff=3000) as b\n"
     "component C = CAVITY(gamma=1, omega=1, mode=a)\nnetwork main = C\n",
     2, "reduction error: line 2, col 1: space dimension 9006001 exceeds the limit of 4096"),
    (["simulate", "--horizon", "0.1", "--observable", "a"], CORPUS_TWO_MODE,
     2, "error: observable 'a' needs a :label on this space"),
], ids=["cutoff_zero", "bs_not_square", "cavity_needs_mode", "pulse_width_zero",
        "degree_cap", "verify_non_finite_state", "space_past_max_dim",
        "observable_needs_label"])
def test_error_paths_exit_with_their_one_line(argv, text, code, line, netlist, capsys):
    rc = main([argv[0], netlist(text), *argv[1:]])
    assert rc == code
    captured = capsys.readouterr()
    assert captured.err == line + "\n"
    assert captured.out == ""


def _out_of_memory():
    raise MemoryError


@pytest.mark.parametrize("fail, line", [
    (_out_of_memory, "error: MemoryError"),
    # numpy refuses the 1 EiB request at once, allocating nothing
    (lambda: np.empty(2**60, dtype=np.uint8),
     "error: Unable to allocate 1.00 EiB for an array with shape (1152921504606846976,) "
     "and data type uint8"),
], ids=["bare", "numpy_allocation"])
def test_out_of_memory_exits_2_with_one_line(fail, line, monkeypatch, capsys):
    monkeypatch.setattr(cli, "compile_netlist", lambda *args, **kwargs: fail())
    rc = main(["reduce", str(NETLISTS / "cavity.slh")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == line + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["simulate", "--horizon", "0.1"], ["verify"]],
                         ids=["simulate", "verify"])
def test_an_interrupt_exits_130_with_one_line(argv, monkeypatch, capsys):
    def interrupt(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_load_reduced", interrupt)
    rc = main([argv[0], str(NETLISTS / "cavity.slh"), *argv[1:]])
    assert rc == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n"
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["reduce"], ["simulate", "--horizon", "0.1"], ["verify"]],
                         ids=["reduce", "simulate", "verify"])
def test_ham_without_channels_exits_2_at_its_component(argv, netlist, capsys):
    text = ("space fock(cutoff=2) as c\n"
            "component H = HAM(a(c) + adag(c), channels=0)\n"
            "network main = H\n")
    rc = main([argv[0], netlist(text), *argv[1:]])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "reduction error: line 2, col 1: HAM needs at least one channel\n"
    assert captured.out == ""


@pytest.mark.parametrize("rows", ["0.5,nan,0.5\n1.0,0.0,0.0", "0.5,1.0,0.5\n1.0,0.0,-inf",
                                  "inf,1.0,0.5"], ids=["nan_value", "inf_value", "inf_time"])
@pytest.mark.parametrize("argv", [["reduce"], ["simulate", "--horizon", "1", "--step", "0.01"]],
                         ids=["reduce", "simulate"])
def test_non_finite_sampled_drive_exits_2_at_its_declaration(rows, argv, netlist, capsys):
    path = netlist((NETLISTS / "sampled_drive.slh").read_text())
    Path(path).with_name("drive.csv").write_text(f"t,re,im\n0.0,0.0,0.0\n{rows}\n")
    rc = main([argv[0], path, *argv[1:]])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == ("reduction error: line 3, col 1: cannot load sampled signal: "
                            "sample times and values must be finite\n")
    assert captured.out == ""


@pytest.mark.parametrize("rows, line, message", [
    ("0.5,1.0\n1.0,0.0,0.0", 3, "expected 3 fields t,re,im, got 2"),
    ("0.5,1.0,0.5\n1.0,x,0.0", 4, "could not convert string to float: 'x'"),
], ids=["two_fields", "non_numeric"])
def test_malformed_sampled_drive_row_exits_2_naming_its_csv_line(rows, line, message, netlist,
                                                                  capsys):
    path = netlist((NETLISTS / "sampled_drive.slh").read_text())
    csv = Path(path).with_name("drive.csv")
    csv.write_text(f"t,re,im\n0.0,0.0,0.0\n{rows}\n")
    rc = main(["reduce", path])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == ("reduction error: line 3, col 1: cannot load sampled signal: "
                            f"{csv}: line {line}: {message}\n")
    assert captured.out == ""


def test_oversized_sampled_drive_field_exits_2_naming_its_csv_line(netlist, capsys):
    # the csv module refuses a field past its limit (131072 characters)
    text = (NETLISTS / "sampled_drive.slh").read_text()
    path = netlist(text.split("\n", 1)[1])  # drop the comment: the signal is on line 2
    csv = Path(path).with_name("drive.csv")
    csv.write_text(f"t,re,im\n0,{'1' * 200000},0\n")
    rc = main(["reduce", path])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == ("reduction error: line 2, col 1: cannot load sampled signal: "
                            f"{csv}: line 2: field larger than field limit (131072)\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv, prefix", [
    # the Schrodinger path: closed chain from vacuum, drift ~1e-16
    (["simulate", str(NETLISTS / "cancel_chain.slh"), "--horizon", "0.5", "--step", "0.01"],
     "integration aborted: norm drift exceeds tolerance at "),
    (["simulate", str(NETLISTS / "cavity.slh"), "--horizon", "0.1", "--step", "0.01",
      "--initial", "fock:1"],
     "integration aborted: trace drift exceeds tolerance at "),
], ids=["schrodinger", "master"])
def test_trace_tol_bounds_either_integrator(argv, prefix, capsys):
    assert main(argv) == 0
    capsys.readouterr()
    rc = main([*argv, "--trace-tol", "1e-300"])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv, code, prefix", [
    (["reduce", str(NETLISTS / "cavity.slh")], 0, ""),
    (["reduce", str(NETLISTS / "err_bad_char.slh")], 1, "parse error: "),
    (["reduce", str(NETLISTS / "err_nonunitary_bs.slh")], 2, "reduction error: "),
], ids=["ok", "parse_error", "reduction_error"])
def test_module_entry_point_exits_with_the_code(argv, code, prefix):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "slhforge.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(prefix)
    assert (proc.stdout != "") == (code == 0)


def test_reduce_and_a_small_simulate_import_no_scipy(tmp_path):
    # scipy.sparse serves the CSR backend (d >= 100) and scipy.integrate the
    # analytic oracle; a fresh interpreter that needs neither loads neither
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cavity = str(NETLISTS / "cavity.slh")
    code = "\n".join([
        "import sys",
        "from slhforge.cli import main",
        f"assert main(['reduce', {cavity!r}, '-o', {str(tmp_path / 'r.json')!r}]) == 0",
        f"assert main(['simulate', {cavity!r}, '--horizon', '0.1', '--step', '0.01',",
        f"             '--observable', 'n', '-o', {str(tmp_path / 's.csv')!r}]) == 0",
        "print(sorted(m for m in ('scipy.sparse', 'scipy.integrate') if m in sys.modules))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert (tmp_path / "s.csv").read_text().count("\n") == 12


@pytest.mark.parametrize("spaces, count", [
    ("space fock(cutoff=2) as c\nspace fock(cutoff=2) as d\n", 2),
    ("space generic(dim=3) as q\n", 0),
])
def test_coherent_initial_state_needs_exactly_one_fock_factor(spaces, count, netlist, capsys):
    path = netlist(spaces + "component H = HAM(0.5 * I)\nnetwork main = H\n")
    rc = main(["simulate", path, "--horizon", "0.1", "--initial", "coherent:0.3,0.1"])
    assert rc == 2
    assert capsys.readouterr().err == ("error: a coherent initial state needs exactly one "
                                       f"Fock factor; this space has {count}\n")


CASCADE_D196 = """\
space fock(cutoff=13) as c1
space fock(cutoff=13) as c2
signal u = gaussian_pulse(amplitude=(0.4 + 0.1i), center=0.5, width=0.35)
component D = ADD(u=[u])
component A = CAVITY(gamma=0.6, omega=1.0, mode=c1)
component B = CAVITY(gamma=0.6, omega=1.0, mode=c2)
network cascade = B <| A <| D
"""


# the noise-cancellation chain on two modes at cutoff 9: closed, so it
# takes the Schrödinger path
CLOSED_D100 = """\
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


# a complex two-channel T around a two-channel coupling and an adder, on
# two modes at cutoff 9: an open run with two live couplings
MIX_D100 = """\
space fock(cutoff=9) as c1
space fock(cutoff=9) as c2
signal u = gaussian_pulse(amplitude=(0.4 + 0.1i), center=0.1, width=0.1)
component X = BS(T=[[0.955336489125606, 0.29552020666133955i], [0.29552020666133955i, 0.955336489125606]])
component G = SYS(L=[sqrt(0.4) * a(c1), sqrt(0.3) * a(c2)])
component A = ADD(u=[u, 0.5 * u])
network mix = X <| G <| A <| X
"""


@pytest.mark.parametrize("text, d, argv, code, arrays", [
    (CASCADE_D196, 196, ["simulate", "--observable", "a:c1", "--observable", "a:c2"], 0, 8.5),
    (CASCADE_D196, 196, ["verify"], 3, 0.5),  # the cascade stays open, so only the reduction runs
    (CLOSED_D100, 100, ["simulate", "--observable", "a:c1", "--observable", "a:c2"], 0, 1.25),
    (MIX_D100, 100, ["simulate", "--observable", "a:c1"], 0, 10.25),
], ids=["simulate", "verify", "simulate_closed_d100", "simulate_two_channel_d100"])
def test_a_run_holds_at_most_its_integration_arrays(text, d, argv, code, arrays, netlist,
                                                    tmp_path):
    # from d = 100 on, the reduction, the sum of K and the observables are
    # CSR, so no dense d×d array exists before the integration: a master
    # run peaks at its RK4 workspace (the state, four slopes and the stage
    # input, which becomes the final state) and its stage's buffers, ρᵀ
    # and one product block, plus a third for ρLᵢ† from two live couplings
    # on: 8.27 arrays measured on the cascade and 9.87 on the two-channel
    # run.  verify, which refuses the open cascade before integrating,
    # peaks at 0.20.  A closed run holds states of d entries, so its peak
    # is the CSR model and the compile's tables (0.95 arrays at d = 100)
    argv = [argv[0], netlist(text), "--horizon", "0.08", "--step", "0.04",
            "-o", str(tmp_path / "out"), *argv[1:]]
    assert main(argv) == code  # untraced, so the import of scipy.sparse is not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == code
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 16 * d * d, peak / (16 * d * d)


# CLOSED_D100 on three modes at cutoff 15: d = 4096, netlist.MAX_DIM
CLOSED_D4096 = """\
space fock(cutoff=15) as c1
space fock(cutoff=15) as c2
space fock(cutoff=15) as c3
signal u = gaussian_pulse(amplitude=(0.4 + 0.1i), center=0.1, width=0.1)
component H0 = HAM(n(c1) + 0.7 * n(c2) + 0.4 * n(c3))
component P = ADD(u=[u])
component M = ADD(u=[-u])
component R = BS(T=[[-1]])
component G = SYS(L=[sqrt(0.4) * a(c1)])
network closed = H0 <| P <| R <| G <| R <| M <| G
"""


def test_a_closed_network_at_the_largest_space_runs_in_a_few_megabytes(netlist, tmp_path):
    # one dense d×d complex array takes 16·4096² bytes = 268 MB, and dense
    # coefficients took 14 of them to reduce this chain; CSR ones peak at
    # 2.1 MB (measured) for the reduction and a 5-step Schrödinger run
    out = tmp_path / "run.csv"
    argv = ["simulate", netlist(CLOSED_D4096), "--horizon", "0.05", "--step", "0.01",
            "--observable", "a:c1", "-o", str(out)]
    assert main(argv) == 0  # untraced, so the import of scipy.sparse is not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, peak
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (6, 6)  # t, ⟨a⟩ re and im, drift, purity, leak
    assert 1e-3 < abs(complex(*rows[-1, 1:3])) < 0.1  # the pulse has driven the mode


def test_a_tiny_pulse_width_samples_without_a_warning(netlist, capsys):
    # (t - center) / width overflows past t = 0, where the pulse is 0
    text = ("space fock(cutoff=2) as c\n"
            "signal u = gaussian_pulse(amplitude=1, center=0, width=1e-320)\n"
            "component C = CAVITY(gamma=1, omega=1)\n"
            "component D = ADD(u=[u])\n"
            "network m = C <| D\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = GaussianPulseSignal("u", 1, 0, 1e-320).sample(np.array([0.0, 0.005, 0.01]))
        rc = main(["simulate", netlist(text), "--horizon", "0.02", "--step", "0.01"])
    assert samples.tolist() == [1, 0, 0]
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == 4


def test_simulate_unknown_observable_label_exits_2(capsys):
    rc = main(["simulate", str(NETLISTS / "cavity.slh"), "--horizon", "0.1",
               "--observable", "n:zz"])
    assert rc == 2
    assert "error: " in capsys.readouterr().err


def test_simulate_integrates_only_a_valid_triple(netlist, capsys):
    rc = main(["simulate", netlist(TWO_HAMS), "--horizon", "0.1", "--step", "0.01"])
    assert rc == 3
    assert capsys.readouterr() == ("", "validation failure: H is not self-adjoint\n")


def test_simulate_refuses_a_coupling_whose_l_dagger_l_passes_the_degree_cap(netlist, capsys):
    # L has degree 5 and reduces; the master equation's L†L would have 10
    path = netlist("space fock(cutoff=1) as c\n"
                   "signal u = constant(0.3)\n"
                   "component S = SYS(L=[u * u * u * u * u * a(c)])\n"
                   "network m = S\n")
    assert main(["reduce", path]) == 0
    assert capsys.readouterr().err == ""
    assert main(["simulate", path, "--horizon", "0.02", "--step", "0.01"]) == 3
    assert capsys.readouterr() == (
        "", "validation failure: L[0] has degree 5, so L†L exceeds degree cap 8\n")


# -- verify ----------------------------------------------------------------


def test_verify_demo_passes(tmp_path, capsys, monkeypatch):
    oracle_calls = []
    analytic = cli.analytic_driven_cavity

    def oracle(omega0, gamma, u, t):
        alpha = analytic(omega0, gamma, u, t)
        if complex(omega0).imag == 0:  # the closed cavity, not output_field_oracle's
            oracle_calls.append((t, alpha))
        return alpha

    monkeypatch.setattr(cli, "analytic_driven_cavity", oracle)
    out = tmp_path / "verify.json"
    rc = main(["verify", "--demo", "--step", "0.002", "-o", str(out)])
    assert rc == 0
    # by default the grid outlasts the demo pulse (centre 3.0, width 0.5),
    # so the oracle check compares a driven amplitude, not the vacuum's
    (t_end, alpha), = oracle_calls
    assert t_end >= 3.0 + 6 * 0.5
    assert abs(alpha) > 0.1
    bundle = json.loads(out.read_text())
    assert bundle["passed"] is True
    names = [c["name"] for c in bundle["checks"]]
    # the ladder every triple gets, then the checks of this instance
    assert names == [
        "couplings_cancel_exactly",
        "triple_valid",
        "master_vs_schrodinger_trace_distance",
        "purity_drift",
        "hamiltonian_term",
        "driven_cavity_oracle",
        "coherent_fidelity",
        "output_field_oracle",
    ]
    err = capsys.readouterr().err
    assert err.count("PASS") == 8 and "FAIL" not in err


def test_output_field_oracle_rejects_the_coefficient_1_construction(tmp_path, capsys,
                                                                   monkeypatch):
    noisy = cli.build_noisy_construction

    def coefficient_1(T, Ls, H0, signals, space):
        # the coefficient-1 triple: H0 + Im(L†u) in place of H0 + 2 Im(L†u)
        g = noisy(T, Ls, H0, signals, space)
        H = OpPolynomial.constant(H0) + (OpPolynomial.constant(Ls[0].dagger())
                                         * OpPolynomial.of_signal(space, signals[0])).imag()
        return SLHTriple(g.T, g.L, H)

    monkeypatch.setattr(cli, "build_noisy_construction", coefficient_1)
    out = tmp_path / "verify.json"
    assert main(["verify", "--demo", "--step", "0.002", "-o", str(out)]) == 3
    by_name = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert by_name["output_field_oracle"]["passed"] is False
    assert float(by_name["output_field_oracle"]["measured"]) > 1e-2
    assert capsys.readouterr().err.endswith("verification failed: output_field_oracle\n")


CHAIN_D36 = """\
space fock(cutoff=5) as c
space fock(cutoff=5) as d
signal u = gaussian_pulse(amplitude=0.4, center=0.5, width=0.2)
component H0 = HAM(n(c) + 0.5 * n(d) + 0.1 * (adag(c) * a(d) + adag(d) * a(c)))
component P = ADD(u=[u])
component M = ADD(u=[-u])
component R = BS(T=[[-1]])
component G = SYS(L=[sqrt(0.4) * a(c)])
network loop = H0 <| P <| R <| G <| R <| M <| G
"""


def test_verify_memory_does_not_grow_with_the_step_count(netlist, tmp_path):
    # the ladder reads final states only, so 8x the steps costs no more
    # memory; a stored trajectory would take 36*36*16 bytes per step
    path = netlist(CHAIN_D36)
    peaks = []
    tracemalloc.start()
    try:
        for horizon in ("0.1", "0.8"):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rc = main(["verify", path, "--horizon", horizon, "--step", "0.001",
                       "-o", str(tmp_path / "verify.json")])
            assert rc == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks


def test_verify_file_with_open_coupling_fails(netlist, tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = main(["verify", netlist(MINIMAL), "--horizon", "0.2", "-o", str(out)])
    assert rc == 3
    bundle = json.loads(out.read_text())
    assert bundle["passed"] is False
    by_name = {c["name"]: c for c in bundle["checks"]}
    assert by_name["couplings_cancel_exactly"]["passed"] is False
    assert "nonzero L entries" in by_name["couplings_cancel_exactly"]["detail"]


def test_tol_governs_reduce_and_verify_alike(netlist, tmp_path, capsys):
    # H and H† differ by ~1e-12: within the default 1e-10, not within 1e-16
    path = netlist("space fock(cutoff=3) as c\n"
                   "component H = HAM(n(c) + 2e-12i * a(c) - 1e-12i * adag(c))\n"
                   "network main = H\n")
    report, bundle = tmp_path / "reduce.json", tmp_path / "verify.json"
    verify = ["verify", path, "--horizon", "0.1", "--step", "0.01", "-o", str(bundle)]
    assert main(["reduce", path, "-o", str(report)]) == 0
    assert main(verify) == 0
    capsys.readouterr()

    assert main(["reduce", path, "--tol", "1e-16", "-o", str(report)]) == 3
    assert capsys.readouterr().err == "validation failure: see report\n"
    validation = json.loads(report.read_text())["validation"]
    assert validation["h_self_adjoint"] is False
    # S = I is unitary whatever H is
    assert validation["s_unitary_at_probes"] is True

    assert main([*verify, "--tol", "1e-16"]) == 3
    by_name = {c["name"]: c for c in json.loads(bundle.read_text())["checks"]}
    assert by_name["triple_valid"]["passed"] is False
    assert by_name["triple_valid"]["detail"] == "H is not self-adjoint"
    assert capsys.readouterr().err.endswith("verification failed: triple_valid\n")


def test_verify_integrates_only_a_valid_triple(netlist, tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = main(["verify", netlist(TWO_HAMS), "--horizon", "0.1", "--step", "0.01",
               "-o", str(out)])
    assert rc == 3
    checks = json.loads(out.read_text())["checks"]
    assert [(c["name"], c["passed"]) for c in checks] == [
        ("couplings_cancel_exactly", True), ("triple_valid", False)]
    assert checks[1]["detail"] == "H is not self-adjoint"
    assert capsys.readouterr().err.endswith("verification failed: triple_valid\n")


def test_verify_demo_passes_at_tol_0(capsys):
    # a check passes when its measure equals its tolerance, as triple_valid
    # does: the demo's H term is exact
    assert main(["verify", "--demo", "--tol", "0", "--step", "0.01"]) == 0
    assert "FAIL" not in capsys.readouterr().err


def test_verify_closed_file_passes(netlist, tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", netlist(CLOSED), "--horizon", "0.2", "-o", str(out)])
    assert rc == 0
    bundle = json.loads(out.read_text())
    assert bundle["passed"] is True
    names = [c["name"] for c in bundle["checks"]]
    assert "master_vs_schrodinger_trace_distance" in names


def test_verify_needs_a_target(capsys):
    rc = main(["verify"])
    assert rc == 2
    assert capsys.readouterr().err == "error: give a netlist file or --demo\n"
