"""Netlist parsing, pretty-printing, semantic analysis, and reduction."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slhforge import (
    GaussianPulseSignal,
    HilbertSpace,
    NetlistReductionError,
    NetlistSemanticError,
    NetlistSyntaxError,
    OpPolynomial,
    annihilator,
    build_cancellation_chain,
    cavity,
    compile_netlist,
    number_op,
    parse_netlist,
    print_netlist,
    triples_approx_equal,
)
from slhforge.netlist import MAX_EXPR_DEPTH, BinOp, Dagger, Neg, Num, Ref, Sqrt


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


# -- scalar arithmetic -----------------------------------------------------

U_VALUE = 0.6 - 0.8j
SCALAR = """\
space fock(cutoff=1) as c
signal u = constant(0.6 - 0.8i)
{}
network main = A
"""


def _u(sp, coeff=1.0):
    return OpPolynomial.of_signal(sp, "u", coeff)


@pytest.mark.parametrize("decl, get, want", [
    ("component A = ADD(u=[dagger((1+2i) * u)])",
     lambda c: c.triple.L[0], lambda sp: _u(sp, 1 + 2j).dagger()),
    ("component A = ADD(u=[-(2 * u) + 3i * u])",
     lambda c: c.triple.L[0], lambda sp: _u(sp, -2 + 3j)),
    ("component A = ADD(u=[sqrt(4) * 0.25 * u * dagger(u)])",
     lambda c: c.triple.L[0], lambda sp: _u(sp, 0.5) * _u(sp).dagger()),
    ("component A = ADD(u=[1.5 - 2i + u, u - u])",
     lambda c: c.triple.L, lambda sp: (OpPolynomial.scalar(sp, 1.5 - 2j) + _u(sp),
                                       OpPolynomial.zero(sp))),
    ("component A = BS(T=[[sqrt(0.5), sqrt(0.5) * 1i], [sqrt(0.5) * 1i, sqrt(0.5)]])",
     lambda c: c.triple.S[1][0], lambda sp: OpPolynomial.scalar(sp, math.sqrt(0.5) * 1j)),
    ("component A = BS(T=[[-(1i * dagger(1i))]])",
     lambda c: c.triple.S[0][0], lambda sp: OpPolynomial.scalar(sp, -1)),
    ("component A = CAVITY(gamma=0.25 * 2, omega=sqrt(4) - 1)",
     lambda c: (c.triple.L[0], c.triple.H),
     lambda sp: (cavity(sp, "c", 0.5, 1.0).L[0], cavity(sp, "c", 0.5, 1.0).H)),
    ("signal p = gaussian_pulse(amplitude=(1 - 2i) * sqrt(0.25), center=2 * 0.5, "
     "width=dagger(0.5))\ncomponent A = ADD(u=[p])",
     lambda c: (c.signals["p"].amplitude, c.signals["p"].center, c.signals["p"].width),
     lambda sp: (0.5 - 1j, 1.0, 0.5)),
    ("signal e = complex_exponential(amplitude=-1i * 3, frequency=-(2), phase=0.25 + 0.5)"
     "\ncomponent A = ADD(u=[e])",
     lambda c: (c.signals["e"].amplitude, c.signals["e"].frequency, c.signals["e"].phase),
     lambda sp: (-3j, -2.0, 0.75)),
], ids=["dagger", "neg_sum", "sqrt_product", "constant_and_zero", "bs_unitary",
        "bs_conjugate", "cavity", "gaussian_pulse", "complex_exponential"])
def test_scalar_expressions_evaluate_exactly(decl, get, want):
    compiled = compile_netlist(parse_netlist(SCALAR.format(decl)))
    assert get(compiled) == want(compiled.space)


def _scalar_trees(depth):
    """Random scalar expressions over the signal u, as ASTs."""
    number = st.floats(0, 4, allow_nan=False, allow_infinity=False)
    leaf = st.one_of(st.builds(Num, number, st.booleans()), st.just(Ref("u")),
                     st.builds(Sqrt, st.builds(Num, number)))
    if depth == 0:
        return leaf
    sub = _scalar_trees(depth - 1)
    return st.one_of(leaf, st.builds(Neg, sub), st.builds(Dagger, sub),
                     st.builds(BinOp, st.sampled_from("+-*"), sub, sub))


def _reference(node):
    """(value, bound, degree) of a tree in Python complex arithmetic; the
    bound sums magnitudes, so it caps the rounding of any cancellation."""
    if isinstance(node, Num):
        v = node.value * (1j if node.imag else 1)
        return v, abs(v), 0
    if isinstance(node, Ref):
        return U_VALUE, abs(U_VALUE), 1
    if isinstance(node, Sqrt):
        v = math.sqrt(node.arg.value)
        return v, v, 0
    if isinstance(node, (Neg, Dagger)):
        v, b, d = _reference(node.arg)
        return (-v if isinstance(node, Neg) else v.conjugate()), b, d
    (lv, lb, ld), (rv, rb, rd) = _reference(node.left), _reference(node.right)
    if node.op == "*":
        return lv * rv, lb * rb, ld + rd
    return (lv + rv if node.op == "+" else lv - rv), lb + rb, max(ld, rd)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_scalar_trees(6))
def test_scalar_expressions_match_complex_arithmetic(tree):
    want, bound, degree = _reference(tree)
    assume(degree <= 8)
    ast = parse_netlist(SCALAR.format("component A = ADD(u=[0])"))
    ast.components[0].args["u"] = [tree]
    text = print_netlist(ast)
    again = parse_netlist(text)
    assert again == ast
    assert print_netlist(again) == text
    compiled = compile_netlist(again)
    got = compiled.triple.L[0].evaluate(0.0, compiled.signals).matrix
    assert abs(got[0, 0] - want) <= 1e-12 * max(1.0, bound)
    assert np.array_equal(got, got[0, 0] * np.eye(2))


def _nested(kind, n):
    if kind == "parens":
        return "(" * n + "n(c)" + ")" * n
    if kind == "minus":
        return "-" * n + "n(c)"
    if kind == "sum":
        return " + ".join(["n(c)"] * (n + 1))
    # a deep left operand and a chain on top: n levels in all
    half = n // 2
    return "(" * half + "n(c)" + ")" * half + " + n(c)" * (n - half)


@pytest.mark.parametrize("kind", ["parens", "minus", "sum", "mixed"])
def test_expression_depth_bound(kind):
    text = "space fock(cutoff=1) as c\ncomponent H = HAM({})\nnetwork main = H\n"
    ast = parse_netlist(text.format(_nested(kind, MAX_EXPR_DEPTH)))
    assert parse_netlist(print_netlist(ast)) == ast
    assert not compile_netlist(ast).triple.H.is_zero()
    err = syntax_error(text.format(_nested(kind, MAX_EXPR_DEPTH + 1)))
    assert err.line == 2 and "nested too deeply" in str(err)


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


@pytest.mark.parametrize("decl, message", [
    ("signal u = gaussian_pulse(amplitude=1, center=0)",
     "line 2, col 48: gaussian_pulse missing argument(s) width"),
    ("signal u = complex_exponential(amplitude=1, frequency=2,)",
     "line 2, col 57: syntax error, found ')' (expected amplitude, frequency, phase)"),
    ("signal u = complex_exponential(phase=1, amplitude=1, phase=2)",
     "line 2, col 59: duplicate argument 'phase'"),
    ("component C = CAVITY(mode=c, gamma=0.1)",
     "line 2, col 39: CAVITY missing argument(s) omega"),
    ("component C = CAVITY(gamma=0.1, omega=1, gamma=0.2)",
     "line 2, col 47: duplicate argument 'gamma'"),
    ("component C = CAVITY(gamma=0.1, omega=1, mod=c)",
     "line 2, col 42: syntax error, found 'mod' (expected gamma, omega, mode)"),
], ids=["pulse_missing", "trailing_comma", "signal_duplicate", "cavity_missing",
        "cavity_duplicate", "cavity_unknown_key"])
def test_keyword_argument_errors(decl, message):
    err = syntax_error(f"space fock(cutoff=2) as c\n{decl}\nnetwork main = C\n")
    assert str(err) == message


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


def test_degree_cap_points_at_the_product():
    err = semantic_error("space fock(cutoff=1) as c\n"
                         "signal u = constant(1)\n"
                         "component A = ADD(u=[u * u * u * u * u * u * u * u * u])\n"
                         "network main = A\n")
    assert (err.line, err.col) == (3, 52) and "degree cap 8" in str(err)

