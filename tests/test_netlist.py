"""Netlist parsing, pretty-printing, semantic analysis, and reduction."""

import math
import re
from pathlib import Path

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
)
from slhforge.hilbert import fock_factor
from slhforge.netlist import (MAX_EXPR_DEPTH, BinOp, Dagger, Neg, NetworkDecl, Num, Ref,
                              Sqrt, _Analyzer)
from slhforge.signals import ONE
from conftest import constant_term
from reference import triples_approx_equal


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
    assert constant_term(g.L[0]).approx_equal(np.sqrt(0.4) * a, 1e-12)
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
    assert constant_term(compiled.triple.L[0]).approx_equal(want, 1e-12)


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
     lambda c: c.triple.T[1, 0], lambda sp: math.sqrt(0.5) * 1j),
    ("component A = BS(T=[[-(1i * dagger(1i))]])",
     lambda c: c.triple.T[0, 0], lambda sp: -1),
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


def _constant_trees(depth):
    """Random scalar expressions without a signal, as ASTs; a Neg of the
    literal 0 is -0."""
    number = st.one_of(st.just(0.0), st.floats(0, 4, allow_nan=False, allow_infinity=False),
                       st.floats(1e300, 1e308))
    leaf = st.one_of(st.builds(Num, number, st.booleans()),
                     st.builds(Sqrt, st.builds(Num, number)))
    if depth == 0:
        return leaf
    sub = _constant_trees(depth - 1)
    return st.one_of(leaf, st.builds(Neg, sub), st.builds(Dagger, sub),
                     st.builds(BinOp, st.sampled_from("+-*"), sub, sub))


@pytest.mark.parametrize("cutoff", [2, 9], ids=["d9_dense", "d100_csr"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(tree=_constant_trees(5))
def test_a_scalar_literal_has_the_bits_of_its_value_on_the_files_space(cutoff, tree):
    # const_scalar computes on a one-dimensional space, by one rule at every
    # d.  Its value, or its error, is the one it has on the dense d = 9
    # space, and that is entry [0, 0] of the expression's c·I there, signed
    # zeros included (a CSR entry at d = 100, read as a sum from +0, would
    # take the sign off a zero part)
    def analyzer_at(cutoff):
        ast = parse_netlist(f"space fock(cutoff={cutoff}) as c1\n"
                            f"space fock(cutoff={cutoff}) as c2\n"
                            "component A = BS(T=[[1]])\nnetwork main = A\n")
        analyzer = _Analyzer(ast)
        analyzer.space = HilbertSpace([fock_factor("c1", cutoff), fock_factor("c2", cutoff)])
        return analyzer

    here, dense = analyzer_at(cutoff), analyzer_at(2)

    def outcome(read):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return np.array([read()]).tobytes()
        except NetlistSemanticError as exc:
            return str(exc)

    def on_the_dense_space():
        p = dense.eval_expr(tree, allow_signals=False, allow_ops=False)
        return complex(p.terms[ONE][0, 0]) if p.terms else 0j

    at_d9 = outcome(lambda: dense.const_scalar(tree, "BS entry"))
    assert at_d9 == outcome(on_the_dense_space)
    assert outcome(lambda: here.const_scalar(tree, "BS entry")) == at_d9


NETLISTS = Path(__file__).parent / "netlists"
CORPUS ={path.name: path.read_text() for path in sorted(NETLISTS.glob("*.slh"))}
MUTANT_CHARS = "acnuxzAGHST0129 _()[]<|=,.*+-#\n\t'\"ei\\$?é"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(CORPUS)), st.sampled_from(["insert", "delete", "replace"]),
       st.data())
def test_mutated_corpus_netlists_compile_or_fail_with_a_position(name, edit, data):
    text = CORPUS[name]
    at = data.draw(st.integers(0, len(text) - (edit != "insert")))
    char = "" if edit == "delete" else data.draw(st.sampled_from(MUTANT_CHARS))
    mutant = text[:at] + char + text[at + (edit != "insert"):]
    try:
        compile_netlist(parse_netlist(mutant), base_dir=str(NETLISTS))
    except (NetlistSyntaxError, NetlistSemanticError) as err:
        lines = mutant.split("\n")
        assert 1 <= err.line <= len(lines) and 1 <= err.col <= len(lines[err.line - 1]) + 1
    except NetlistReductionError as err:
        # the chain's channel counts disagree (err_channel_mismatch.slh and
        # its mutants): the message names the component and where it stands
        _assert_mismatch_names_its_component(err, mutant)


# keyword and operator fragments, plus whole statements that let the
# text get past its first line
FUZZ_TOKENS = ["space ", "fock(cutoff=", "generic(dim=", " as ", "signal ", "u", " = ",
               "constant(", "gaussian_pulse(amplitude=", "component ", "G", "SYS(L=[", "HAM(",
               "BS(T=[[", "ADD(u=[", "CAVITY(gamma=", ", omega=", "network ", " <| ", "<|",
               "a(c)", "adag(c)", "n(c)", "dagger(", "sqrt(", "0.4", "2", "1i", " * ", ")]",
               "\n", "space fock(cutoff=2) as c\n", "\nsignal u = constant(0.4)\n",
               "component G = ", "network n = G"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(FUZZ_TOKENS) | st.sampled_from(MUTANT_CHARS),
                min_size=1, max_size=40).map("".join))
def test_random_text_compiles_or_fails_with_a_position(text):
    try:
        compile_netlist(parse_netlist(text), base_dir=str(NETLISTS))
    except (NetlistSyntaxError, NetlistSemanticError) as err:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines) and 1 <= err.col <= len(lines[err.line - 1]) + 1
    except NetlistReductionError:
        pass


def _assert_mismatch_names_its_component(err, text):
    """``err`` is a channel-count mismatch whose position, inside ``text``,
    is where the component it names is written in the network chain."""
    m = re.fullmatch(r"channel-count mismatch: \d+ vs \d+, "
                     r"composing '(\w+)' at line (\d+), col (\d+)", str(err))
    assert m, str(err)
    name, line, col = m.group(1), int(m.group(2)), int(m.group(3))
    lines = text.split("\n")
    assert 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1
    assert re.match(rf"{name}\b", lines[line - 1][col - 1:])


def _with_chain(ast, chain):
    """The netlist ``ast`` with its network replaced by ``chain``, as text."""
    ast.network.chain = list(chain)
    return print_netlist(ast)


def _assert_print_fixpoint(text):
    ast = parse_netlist(text)
    printed = print_netlist(ast)
    again = parse_netlist(printed)
    assert again == ast
    assert print_netlist(again) == printed
    return again


COMPOSABLE = sorted(name for name in CORPUS if not name.startswith("err_"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(COMPOSABLE), st.data())
def test_random_series_compositions_print_to_a_fixpoint(name, data):
    ast = parse_netlist(CORPUS[name])
    names = [c.name for c in ast.components]
    chain = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=8))
    again = _assert_print_fixpoint(_with_chain(ast, chain))
    assert again.network.chain == chain
    try:
        compiled = compile_netlist(again, base_dir=str(NETLISTS))
    except NetlistReductionError as err:
        _assert_mismatch_names_its_component(err, print_netlist(again))
    else:
        assert [step.component for step in compiled.trace] == chain[::-1]


# compositions that leave a series chain's coupling unchanged: a bare
# Hamiltonian, and adjacent adders or sign flips that undo each other
NEUTRAL = [("H0",), ("P", "M"), ("M", "P"), ("R", "R")]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 64), st.sampled_from(NEUTRAL)), max_size=6))
def test_neutral_insertions_keep_the_cancelled_coupling_exactly_zero(insertions):
    # the paper's chain cancels L exactly; coefficients stay ±√0.4·a and
    # integer multiples of I along any such chain, so every sum is exact
    ast = parse_netlist(CORPUS["cancel_chain.slh"])
    chain = list(ast.network.chain)
    for at, piece in insertions:
        at %= len(chain) + 1
        chain[at:at] = piece
    compiled = compile_netlist(_assert_print_fixpoint(_with_chain(ast, chain)))
    assert compiled.triple.channels == 1
    assert compiled.triple.L[0] == OpPolynomial.zero(compiled.space)


def _bits(poly):
    return {mono: coeff.tobytes() for mono, coeff in poly.terms.items()}


# a complex scale with both parts nonzero, as netlist text
COMPLEX_SCALE = st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0),
                          st.sampled_from("+-"), st.sampled_from(["", "-"])).map(
    lambda x: f"({x[3]}{x[0]!r} {x[2]} {x[1]!r}i)")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(COMPOSABLE), st.data())
def test_complex_adder_pairs_leave_the_reduced_triple_unchanged_bit_for_bit(name, data):
    # ADD(s·v) <| ADD(−s·v) is the identity: inserted anywhere in a chain,
    # each pair on a signal of its own, it must leave L and H as they were
    # (conj(s)·s rounding to a complex number left Im(L†SL) ≈ 1e-18 in H)
    text = CORPUS[name]
    base = compile_netlist(parse_netlist(text), base_dir=str(NETLISTS)).triple
    decls = []
    chain = list(parse_netlist(text).network.chain)
    for k in range(data.draw(st.integers(1, 3))):
        scales = [data.draw(COMPLEX_SCALE) for _ in range(base.channels)]
        plus = ", ".join(f"{s} * v{k}" for s in scales)
        minus = ", ".join(f"-{s} * v{k}" for s in scales)
        decls += [f"signal v{k} = constant(1)", f"component PZ{k} = ADD(u=[{plus}])",
                  f"component MZ{k} = ADD(u=[{minus}])"]
        at = data.draw(st.integers(0, len(chain)))
        chain[at:at] = data.draw(st.sampled_from([[f"PZ{k}", f"MZ{k}"], [f"MZ{k}", f"PZ{k}"]]))
    at = text.index("\nnetwork ") + 1
    ast = parse_netlist(text[:at] + "\n".join(decls) + "\n" + text[at:])
    g = compile_netlist(_assert_print_fixpoint(_with_chain(ast, chain)),
                        base_dir=str(NETLISTS)).triple
    assert [_bits(entry) for entry in g.L] == [_bits(entry) for entry in base.L]
    assert _bits(g.H) == _bits(base.H)


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
            "network main = G <| G <| A\n")
    # the G next to A is composed first: the message points at that one
    with pytest.raises(NetlistReductionError) as err:
        compile_netlist(parse_netlist(text))
    assert str(err.value) == ("channel-count mismatch: 1 vs 2, "
                              "composing 'G' at line 5, col 21")


def test_hand_built_chain_reports_a_mismatch_without_a_position():
    # only the parser records where each chain name stands
    ast = parse_netlist(CORPUS["err_channel_mismatch.slh"])
    ast.network = NetworkDecl("main", ["G", "A"])
    with pytest.raises(NetlistReductionError) as err:
        compile_netlist(ast)
    assert str(err.value) == "channel-count mismatch: 1 vs 2, composing 'G'"


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


def test_nan_imaginary_part_is_not_real():
    # the parser rejects non-finite literals and an overflowing operator is
    # an error, so only a hand-built tree carries a NaN into a real slot
    text = ("space fock(cutoff=1) as c\n"
            "component C = CAVITY(gamma=1, omega=2i)\n"
            "network main = C\n")
    ast = parse_netlist(text)
    omega = ast.components[0].args["omega"]
    omega.value = math.nan  # nan·1j has a NaN imaginary part
    with pytest.raises(NetlistSemanticError) as info:
        compile_netlist(ast)
    err = info.value
    assert (err.line, err.col) == (2, text.splitlines()[1].index("2i") + 1)
    assert "omega must be real" in str(err)
