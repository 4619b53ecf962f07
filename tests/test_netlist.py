"""Netlist parsing, pretty-printing, semantic analysis, and reduction."""

import numpy as np
import pytest

from slhforge import (
    GaussianPulseSignal,
    HilbertSpace,
    NetlistReductionError,
    NetlistSemanticError,
    NetlistSyntaxError,
    annihilator,
    build_cancellation_chain,
    compile_netlist,
    number_op,
    parse_netlist,
    print_netlist,
    triples_approx_equal,
)


MINIMAL = """\
space fock(cutoff=2) as c
component G = SYS(L=[sqrt(0.4) * a(c)])
network main = G
"""


def test_parse_minimal_file():
    ast = parse_netlist(MINIMAL)
    assert len(ast.spaces) == 1
    assert ast.spaces[0].kind == "fock" and ast.spaces[0].size == 2
    assert ast.components[0].kind == "SYS"
    assert ast.network.chain == ["G"]


def test_compile_minimal_file():
    compiled = compile_netlist(parse_netlist(MINIMAL))
    g = compiled.triple
    assert g.channels == 1
    a = annihilator(compiled.space, "c")
    assert g.L[0].constant_part().approx_equal(np.sqrt(0.4) * a, 1e-12)
    assert compiled.network_name == "main"
    assert len(compiled.trace) == 1


def test_comments_and_whitespace_are_ignored():
    text = "# a comment\n" + MINIMAL.replace("network", "  # inline\nnetwork")
    assert parse_netlist(text) == parse_netlist(MINIMAL)


def test_parse_positions_do_not_affect_equality():
    spaced = MINIMAL.replace("space", "\n\n   space")
    assert parse_netlist(spaced) == parse_netlist(MINIMAL)


def test_print_parse_fixpoint():
    ast = parse_netlist(MINIMAL)
    text = print_netlist(ast)
    again = parse_netlist(text)
    assert again == ast
    assert print_netlist(again) == text


CHAIN = """\
space fock(cutoff=3) as c
signal u = gaussian_pulse(amplitude=0.4, center=1.5, width=0.5)
component H0 = HAM(n(c))
component P = ADD(u=[u])
component M = ADD(u=[-u])
component R = BS(T=[[-1]])
component G = SYS(L=[sqrt(0.4) * a(c)])
network loop = H0 <| P <| R <| G <| R <| M <| G
"""


def test_cancellation_chain_netlist_matches_library_construction():
    compiled = compile_netlist(parse_netlist(CHAIN))
    sp = compiled.space
    a = annihilator(sp, "c")
    want = build_cancellation_chain(
        [np.sqrt(0.4) * a], number_op(sp, "c"), ["u"], sp
    )
    eq, rep = triples_approx_equal(
        compiled.triple, want, tol=1e-12,
        probe_times=[0.0, 1.5], probe_bindings=compiled.signals,
    )
    assert eq, rep
    assert all(entry.is_zero() for entry in compiled.triple.L)
    assert [s.component for s in compiled.trace] == ["G", "M", "R", "G", "R", "P", "H0"]
    assert isinstance(compiled.signals["u"], GaussianPulseSignal)


def test_ham_channel_broadcasting():
    text = """\
space generic(dim=2) as q
component H0 = HAM(I + I)
signal u1 = constant(1)
signal u2 = constant(2i)
component A = ADD(u=[u1, u2])
network main = H0 <| A
"""
    compiled = compile_netlist(parse_netlist(text))
    assert compiled.triple.channels == 2


def test_multi_factor_space():
    text = """\
space fock(cutoff=2) as c1
space fock(cutoff=1) as c2
component G = SYS(L=[a(c1), a(c2)])
network main = G
"""
    compiled = compile_netlist(parse_netlist(text))
    assert compiled.space.total_dim == 6
    assert compiled.triple.channels == 2


def test_sampled_signal_loads_relative_to_base_dir(tmp_path):
    (tmp_path / "drive.csv").write_text("t,re,im\n0.0,1.0,0.0\n1.0,0.0,1.0\n")
    text = """\
space fock(cutoff=2) as c
signal u = sampled("drive.csv")
component A = ADD(u=[u])
network main = A
"""
    compiled = compile_netlist(parse_netlist(text), base_dir=str(tmp_path))
    assert compiled.signals["u"](0.5) == pytest.approx(0.5 + 0.5j)


def test_expression_grammar():
    text = """\
space fock(cutoff=2) as c
component G = SYS(L=[2 * (a(c) + dagger(a(c))) - 1i * n(c)])
network main = G
"""
    compiled = compile_netlist(parse_netlist(text))
    sp = compiled.space
    a = annihilator(sp, "c")
    want = 2.0 * (a + a.dagger()) - 1j * (a.dagger() @ a)
    assert compiled.triple.L[0].constant_part().approx_equal(want, 1e-12)


# -- errors ----------------------------------------------------------------


def syntax_error(text):
    with pytest.raises(NetlistSyntaxError) as info:
        parse_netlist(text)
    return info.value


def semantic_error(text, **kw):
    with pytest.raises(NetlistSemanticError) as info:
        compile_netlist(parse_netlist(text), **kw)
    return info.value


def test_unexpected_character_reports_position():
    err = syntax_error("space fock(cutoff=2) as c\nnetwork main = $\n")
    assert err.line == 2 and "$" in str(err)


def test_dangling_series_operator():
    err = syntax_error(MINIMAL.replace("network main = G", "network main = G <|"))
    assert "end of input" in str(err)


def test_missing_network_declaration():
    err = syntax_error("space fock(cutoff=2) as c\n")
    assert "missing network" in str(err)


def test_duplicate_network_declaration():
    err = syntax_error(MINIMAL + "network extra = G\n")
    assert "multiple network" in str(err)


def test_expected_tokens_are_listed():
    err = syntax_error("space fock(cutoff=2) as c\nwidget W = SYS()\n")
    assert "expected" in str(err) and "component" in str(err)


def test_non_integer_cutoff():
    err = syntax_error(MINIMAL.replace("cutoff=2", "cutoff=2.5"))
    assert "integer" in str(err)


def test_duplicate_declaration():
    err = semantic_error("space fock(cutoff=2) as c\n"
                         "component G = SYS(L=[a(c)])\n"
                         "component G = HAM(I)\n"
                         "network main = G\n")
    assert "duplicate" in str(err)


def test_undeclared_component_in_network():
    err = semantic_error("space fock(cutoff=2) as c\n"
                         "component G = SYS(L=[a(c)])\n"
                         "network main = G <| X\n")
    assert "undeclared component 'X'" in str(err)


def test_undeclared_signal():
    err = semantic_error("space fock(cutoff=2) as c\n"
                         "component A = ADD(u=[v])\n"
                         "network main = A\n")
    assert "undeclared signal 'v'" in str(err)


def test_unknown_space_factor():
    err = semantic_error("space fock(cutoff=2) as c\n"
                         "component G = SYS(L=[a(d)])\n"
                         "network main = G\n")
    assert "unknown space factor 'd'" in str(err)


def test_operator_rejected_in_adder():
    err = semantic_error("space fock(cutoff=2) as c\n"
                         "signal u = constant(1)\n"
                         "component A = ADD(u=[u * a(c)])\n"
                         "network main = A\n")
    assert "operator not allowed" in str(err)


def test_signal_rejected_in_beam_splitter():
    err = semantic_error("space fock(cutoff=2) as c\n"
                         "signal u = constant(1)\n"
                         "component B = BS(T=[[u]])\n"
                         "network main = B\n")
    assert "signal not allowed" in str(err)


def test_non_unitary_beam_splitter():
    err = semantic_error("space fock(cutoff=2) as c\n"
                         "component B = BS(T=[[2]])\n"
                         "network main = B\n")
    assert "unitary" in str(err)


def test_missing_space():
    err = semantic_error("component G = HAM(0)\nnetwork main = G\n")
    assert "no space" in str(err)


def test_missing_sampled_file(tmp_path):
    err = semantic_error('space fock(cutoff=2) as c\n'
                         'signal u = sampled("nope.csv")\n'
                         'component A = ADD(u=[u])\n'
                         'network main = A\n', base_dir=str(tmp_path))
    assert "cannot load sampled signal" in str(err)


def test_channel_mismatch_is_a_reduction_error():
    text = ("space fock(cutoff=2) as c\n"
            "signal u = constant(1)\n"
            "component G = SYS(L=[a(c)])\n"
            "component A = ADD(u=[u, u])\n"
            "network main = G <| A\n")
    with pytest.raises(NetlistReductionError, match="channel-count mismatch"):
        compile_netlist(parse_netlist(text))


def test_sqrt_of_negative_is_rejected():
    err = semantic_error("space fock(cutoff=2) as c\n"
                         "component G = SYS(L=[sqrt(0 - 1) * a(c)])\n"
                         "network main = G\n")
    assert "nonnegative" in str(err)


def test_ham_requires_self_adjoint_expression():
    err = semantic_error("space fock(cutoff=2) as c\n"
                         "component H = HAM(a(c))\n"
                         "network main = H\n")
    assert "self-adjoint" in str(err)
