"""End-to-end checks of the reduce / simulate / verify commands."""

import json
import warnings
from pathlib import Path

import pytest

from slhforge import cli
from slhforge.cli import main

NETLISTS = Path(__file__).parent / "netlists"


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


def test_reduce_probe_times(netlist, tmp_path):
    out = tmp_path / "r.json"
    rc = main(["reduce", netlist(MINIMAL), "--probe-times", "0.0,1.5", "-o", str(out)])
    assert rc == 0
    probes = json.loads(out.read_text())["validation"]["probe_times"]
    assert probes == ["0.000000000000e+00", "1.500000000000e+00"]


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


def test_simulate_bad_initial_spec(netlist, capsys):
    rc = main(["simulate", netlist(CLOSED), "--horizon", "0.1",
               "--initial", "thermal:3"])
    assert rc == 2
    assert "initial state" in capsys.readouterr().err


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
], ids=["zero_step", "negative_horizon", "demo_zero_step", "past_sampled_table",
        "overflowing_step_count", "step_count_over_max", "horizon_not_whole_steps"])
def test_bad_time_grid_exits_2(argv, capsys):
    rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv, code", [
    (["reduce", "{cavity}", "--probe-times", "a,b"], 2),
    (["reduce", "{cavity}", "--probe-times", "0,nan"], 2),
    (["reduce", "{latin1}"], 1),
    (["reduce", "{cavity}", "-o", "{tmp}/absent/x.json"], 1),
    (["simulate", "{cavity}", "--horizon", "0.1", "--step", "0.01",
      "-o", "{tmp}/absent/x.csv"], 1),
    (["verify", "{cavity}", "--horizon", "0.1", "--step", "0.01",
      "-o", "{tmp}/absent/x.json"], 1),
], ids=["probe_not_a_number", "probe_not_finite", "input_not_utf8",
        "reduce_output_unwritable", "simulate_output_unwritable", "verify_output_unwritable"])
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


def test_simulate_unknown_observable_label_exits_2(capsys):
    rc = main(["simulate", str(NETLISTS / "cavity.slh"), "--horizon", "0.1",
               "--observable", "n:zz"])
    assert rc == 2
    assert "error: " in capsys.readouterr().err


# -- verify ----------------------------------------------------------------


def test_verify_demo_passes(tmp_path, capsys, monkeypatch):
    oracle_calls = []
    analytic = cli.analytic_driven_cavity

    def oracle(omega0, gamma, u, t):
        alpha = analytic(omega0, gamma, u, t)
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
    assert names == [
        "couplings_cancel_exactly",
        "hamiltonian_term",
        "master_vs_schrodinger_trace_distance",
        "purity_drift",
        "output_expectation_zero",
        "driven_cavity_oracle",
        "coherent_fidelity",
    ]
    err = capsys.readouterr().err
    assert err.count("PASS") == 7 and "FAIL" not in err


def test_verify_file_with_open_coupling_fails(netlist, tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = main(["verify", netlist(MINIMAL), "--horizon", "0.2", "-o", str(out)])
    assert rc == 3
    bundle = json.loads(out.read_text())
    assert bundle["passed"] is False
    by_name = {c["name"]: c for c in bundle["checks"]}
    assert by_name["couplings_cancel_exactly"]["passed"] is False
    assert "nonzero L entries" in by_name["couplings_cancel_exactly"]["detail"]


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
    assert rc == 1
    assert "give a netlist file or --demo" in capsys.readouterr().err
