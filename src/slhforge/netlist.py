"""Textual network-description language (`.slh` files).

A netlist declares the factors of one composite Hilbert space, named
scalar signals, named components, and exactly one network expression: a
series chain written with `<|`, where the leftmost component receives
the rightmost component's output (the rightmost is first in signal
flow).  Direct feedback of a device's output into itself is expressed by
naming the same component twice in the chain; the series product covers
that situation because all components share the file's space.

The grammar is tiny and parsed by hand-rolled recursive descent so that
error messages carry exact positions and expected-token sets.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hilbert import (MODE_OPERATORS, HilbertSpace, _values, fock_factor, generic_factor,
                      identity)
from .network import (
    SLHTriple,
    beam_splitter,
    cavity,
    pure_hamiltonian,
    series,  # unused here; perfbench/workloads.py patches netlist.series
    series_steps,
    signal_adder,
    system_coupling,
)
from .signals import (
    ComplexExponentialSignal,
    ConstantSignal,
    GaussianPulseSignal,
    ONE,
    OpPolynomial,
    SampledSignal,
    Signal,
)


# -- errors ---------------------------------------------------------------


class NetlistError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class NetlistSyntaxError(NetlistError):
    def __init__(self, message: str, line: int, col: int, expected: Sequence[str] = ()):
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(message, line, col)
        self.expected = tuple(expected)


class NetlistSemanticError(NetlistError):
    pass


class NetlistReductionError(Exception):
    """Composition of a valid AST failed (space/channel/degree trouble)."""


# -- AST ------------------------------------------------------------------


def _pos_field():
    return field(default=(0, 0), compare=False, repr=False)


@dataclass
class Num:
    value: float
    imag: bool = False
    pos: tuple = _pos_field()


@dataclass
class Ref:
    name: str
    pos: tuple = _pos_field()


@dataclass
class IdentityLit:
    pos: tuple = _pos_field()


@dataclass
class ModeOp:
    kind: str  # a key of hilbert.MODE_OPERATORS
    label: str
    pos: tuple = _pos_field()


@dataclass
class Neg:
    arg: object
    pos: tuple = _pos_field()


@dataclass
class Dagger:
    arg: object
    pos: tuple = _pos_field()


@dataclass
class Sqrt:
    arg: object
    pos: tuple = _pos_field()


@dataclass
class BinOp:
    op: str  # "+" | "-" | "*"
    left: object
    right: object
    pos: tuple = _pos_field()


@dataclass
class SpaceDecl:
    kind: str  # "fock" | "generic"
    size: int  # cutoff for fock, dim for generic
    label: str
    pos: tuple = _pos_field()


@dataclass
class SignalDecl:
    name: str
    kind: str  # constant | complex_exponential | gaussian_pulse | sampled
    args: dict
    pos: tuple = _pos_field()


@dataclass
class ComponentDecl:
    name: str
    kind: str  # SYS | HAM | BS | ADD | CAVITY
    args: dict
    pos: tuple = _pos_field()


@dataclass
class NetworkDecl:
    name: str
    chain: list
    pos: tuple = _pos_field()
    chain_pos: list = field(default_factory=list, compare=False, repr=False)  # (line, col) per name


@dataclass
class NetlistAST:
    spaces: list
    signals: list
    components: list
    network: NetworkDecl


# -- tokenizer ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<NUMBER>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?i?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"[^"\n]*")
  | (?P<SERIES><\|)
  | (?P<SYM>[()\[\],=+\-*])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER | IDENT | STRING | SERIES | SYM | EOF
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise NetlistSyntaxError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            tokens.append(Token(kind, value, line, col))
            col += len(value)
        i = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- parser ---------------------------------------------------------------

#: Most nesting levels one expression may have: each pair of parentheses,
#: unary minus, `dagger(` or `sqrt(`, and each binary operator between an
#: operand and the top of its expression counts one.  A deeper expression
#: is a syntax error, which also bounds the recursion of every later pass.
MAX_EXPR_DEPTH = 100

_COMPONENT_KINDS = ("SYS", "HAM", "BS", "ADD", "CAVITY")
_SIGNAL_KINDS = ("constant", "complex_exponential", "gaussian_pulse", "sampled")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        t = self.tok
        if t.kind != "EOF":
            self.i += 1
        return t

    def error(self, message: str, expected: Sequence[str] = ()):
        t = self.tok
        what = "end of input" if t.kind == "EOF" else repr(t.text)
        raise NetlistSyntaxError(f"{message}, found {what}", t.line, t.col, expected)

    def expect_sym(self, sym: str) -> Token:
        t = self.tok
        if (t.kind == "SYM" and t.text == sym) or (t.kind == "SERIES" and t.text == sym):
            return self.advance()
        self.error("syntax error", [repr(sym)])

    def expect_ident(self, *names: str) -> Token:
        t = self.tok
        if t.kind == "IDENT" and (not names or t.text in names):
            return self.advance()
        self.error("syntax error", [n for n in names] or ["identifier"])

    def expect_number(self) -> Token:
        if self.tok.kind == "NUMBER":
            return self.advance()
        self.error("syntax error", ["number"])

    # -- statements -------------------------------------------------------

    def parse_file(self) -> NetlistAST:
        spaces, signals, components = [], [], []
        network = None
        while self.tok.kind != "EOF":
            t = self.tok
            if t.kind != "IDENT":
                self.error("syntax error", ["space", "signal", "component", "network"])
            if t.text == "space":
                spaces.append(self.parse_space())
            elif t.text == "signal":
                signals.append(self.parse_signal())
            elif t.text == "component":
                components.append(self.parse_component())
            elif t.text == "network":
                if network is not None:
                    raise NetlistSyntaxError(
                        "multiple network declarations", t.line, t.col
                    )
                network = self.parse_network()
            else:
                self.error("syntax error", ["space", "signal", "component", "network"])
        if network is None:
            t = self.tok
            raise NetlistSyntaxError("missing network declaration", t.line, t.col)
        return NetlistAST(spaces, signals, components, network)

    def parse_space(self) -> SpaceDecl:
        start = self.advance()  # "space"
        kind_tok = self.expect_ident("fock", "generic")
        self.expect_sym("(")
        key = "cutoff" if kind_tok.text == "fock" else "dim"
        self.expect_ident(key)
        self.expect_sym("=")
        size_tok = self.expect_number()
        size = self.parse_int(size_tok)
        self.expect_sym(")")
        self.expect_ident("as")
        label = self.expect_ident().text
        return SpaceDecl(kind_tok.text, size, label, (start.line, start.col))

    def parse_int(self, tok: Token) -> int:
        if tok.text.endswith("i") or "." in tok.text or "e" in tok.text.lower():
            raise NetlistSyntaxError("expected an integer", tok.line, tok.col)
        return int(tok.text)

    def parse_signal(self) -> SignalDecl:
        start = self.advance()  # "signal"
        name = self.expect_ident().text
        self.expect_sym("=")
        kind_tok = self.expect_ident(*_SIGNAL_KINDS)
        kind = kind_tok.text
        self.expect_sym("(")
        args: dict = {}
        if kind == "sampled":
            t = self.tok
            if t.kind != "STRING":
                self.error("syntax error", ["string path"])
            args["path"] = self.advance().text[1:-1]
        elif kind == "constant":
            args["value"] = self.parse_expr()[0]
        elif kind == "complex_exponential":
            args = self.parse_kwargs(kind, ("amplitude", "frequency", "phase"), ("phase",))
        else:
            args = self.parse_kwargs(kind, ("amplitude", "center", "width"))
        self.expect_sym(")")
        return SignalDecl(name, kind, args, (start.line, start.col))

    def parse_component(self) -> ComponentDecl:
        start = self.advance()  # "component"
        name = self.expect_ident().text
        self.expect_sym("=")
        kind = self.expect_ident(*_COMPONENT_KINDS).text
        self.expect_sym("(")
        args: dict = {}
        if kind == "SYS":
            self.expect_ident("L")
            self.expect_sym("=")
            args["L"] = self.parse_vector()
        elif kind == "HAM":
            args["H"] = self.parse_expr()[0]
            if self.tok.kind == "SYM" and self.tok.text == ",":
                self.advance()
                self.expect_ident("channels")
                self.expect_sym("=")
                args["channels"] = self.parse_int(self.expect_number())
        elif kind == "BS":
            if self.tok.kind == "IDENT" and self.tok.text == "T":
                self.advance()
                self.expect_sym("=")
            args["T"] = self.parse_matrix()
        elif kind == "ADD":
            if self.tok.kind == "IDENT" and self.tok.text == "u":
                self.advance()
                self.expect_sym("=")
            args["u"] = self.parse_vector()
        elif kind == "CAVITY":
            args = self.parse_kwargs(kind, ("gamma", "omega", "mode"), ("mode",))
        self.expect_sym(")")
        return ComponentDecl(name, kind, args, (start.line, start.col))

    def parse_kwargs(self, kind: str, keys: Sequence[str], optional: Sequence[str] = ()) -> dict:
        """`key=value, ...` over the given keys, each at most once; every
        key not in `optional` is required.  `mode` takes an identifier,
        every other key an expression."""
        args: dict = {}
        while True:
            key = self.expect_ident(*keys).text
            if key in args:
                raise NetlistSyntaxError(
                    f"duplicate argument {key!r}", self.tok.line, self.tok.col
                )
            self.expect_sym("=")
            args[key] = self.expect_ident().text if key == "mode" else self.parse_expr()[0]
            if not (self.tok.kind == "SYM" and self.tok.text == ","):
                break
            self.advance()
        missing = [k for k in keys if k not in args and k not in optional]
        if missing:
            t = self.tok
            raise NetlistSyntaxError(
                f"{kind} missing argument(s) {', '.join(missing)}", t.line, t.col
            )
        return args

    def parse_network(self) -> NetworkDecl:
        start = self.advance()  # "network"
        name = self.expect_ident().text
        self.expect_sym("=")
        names = [self.expect_ident()]
        while self.tok.kind == "SERIES":
            self.advance()
            names.append(self.expect_ident())
        return NetworkDecl(name, [t.text for t in names], (start.line, start.col),
                           [(t.line, t.col) for t in names])

    # -- expressions ------------------------------------------------------

    def parse_vector(self) -> list:
        self.expect_sym("[")
        items = [self.parse_expr()[0]]
        while self.tok.kind == "SYM" and self.tok.text == ",":
            self.advance()
            items.append(self.parse_expr()[0])
        self.expect_sym("]")
        return items

    def parse_matrix(self) -> list:
        self.expect_sym("[")
        rows = [self.parse_vector()]
        while self.tok.kind == "SYM" and self.tok.text == ",":
            self.advance()
            rows.append(self.parse_vector())
        self.expect_sym("]")
        return rows

    # Each expression method returns (node, height): the number of nesting
    # levels (parentheses, unary minus, dagger/sqrt, binary operators) in
    # the text it read.  self.depth counts the levels around it, so
    # self.depth + height is held to MAX_EXPR_DEPTH.

    def check_depth(self, t: Token, height: int):
        if self.depth + height > MAX_EXPR_DEPTH:
            raise NetlistSyntaxError("expression nested too deeply", t.line, t.col)

    def nested(self, t: Token, parse):
        """Parse one nesting level opened by token t."""
        self.depth += 1
        self.check_depth(t, 0)
        node, height = parse()
        self.depth -= 1
        return node, height + 1

    def parse_binary(self, ops: str, operand):
        """Left-associative chain of `operand`s joined by the symbols in ops."""
        node, height = operand()
        while self.tok.kind == "SYM" and self.tok.text in ops:
            op = self.advance()
            right, h = operand()
            height = max(height, h) + 1
            self.check_depth(op, height)
            node = BinOp(op.text, node, right, (op.line, op.col))
        return node, height

    def parse_expr(self):
        return self.parse_binary("+-", self.parse_term)

    def parse_term(self):
        return self.parse_binary("*", self.parse_unary)

    def parse_unary(self):
        t = self.tok
        if t.kind == "SYM" and t.text == "-":
            self.advance()
            node, height = self.nested(t, self.parse_unary)
            return Neg(node, (t.line, t.col)), height
        return self.parse_atom()

    def parse_atom(self):
        t = self.tok
        if t.kind == "NUMBER":
            self.advance()
            imag = t.text.endswith("i")
            value = float(t.text[:-1] if imag else t.text)
            if not math.isfinite(value):
                raise NetlistSyntaxError(f"number {t.text} is not finite", t.line, t.col)
            return Num(value, imag, (t.line, t.col)), 0
        if t.kind == "SYM" and t.text == "(":
            self.advance()
            node = self.nested(t, self.parse_expr)
            self.expect_sym(")")
            return node
        if t.kind == "IDENT":
            name = t.text
            if name in MODE_OPERATORS:
                self.advance()
                self.expect_sym("(")
                label = self.expect_ident().text
                self.expect_sym(")")
                return ModeOp(name, label, (t.line, t.col)), 0
            if name == "I":
                self.advance()
                return IdentityLit((t.line, t.col)), 0
            if name in ("dagger", "sqrt"):
                self.advance()
                self.expect_sym("(")
                node, height = self.nested(t, self.parse_expr)
                self.expect_sym(")")
                return (Dagger if name == "dagger" else Sqrt)(node, (t.line, t.col)), height
            self.advance()
            return Ref(name, (t.line, t.col)), 0
        self.error("syntax error", ["expression"])


def parse_netlist(text: str) -> NetlistAST:
    """Parse netlist source into an AST with source positions."""
    return _Parser(tokenize(text)).parse_file()


# -- pretty printer -------------------------------------------------------


def _fmt_num(node: Num) -> str:
    v = node.value
    s = repr(int(v)) if float(v).is_integer() and abs(v) < 1e16 else repr(v)
    return s + ("i" if node.imag else "")


def _print_expr(node, prec: int = 0) -> str:
    if isinstance(node, Num):
        return _fmt_num(node)
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, IdentityLit):
        return "I"
    if isinstance(node, ModeOp):
        return f"{node.kind}({node.label})"
    if isinstance(node, Dagger):
        return f"dagger({_print_expr(node.arg)})"
    if isinstance(node, Sqrt):
        return f"sqrt({_print_expr(node.arg)})"
    if isinstance(node, Neg):
        # unary minus binds tightest and can follow any operator, so it
        # needs no parentheses of its own
        return f"-{_print_expr(node.arg, 3)}"
    if isinstance(node, BinOp):
        p = 1 if node.op in "+-" else 2
        left = _print_expr(node.left, p)
        right = _print_expr(node.right, p + 1)
        s = f"{left} {node.op} {right}"
        return f"({s})" if prec > p else s
    raise TypeError(f"unknown expression node {node!r}")


def _print_vector(items) -> str:
    return "[" + ", ".join(_print_expr(e) for e in items) + "]"


def _print_kwargs(args: dict) -> str:
    return ", ".join(
        f"{k}={v}" if isinstance(v, str) else f"{k}={_print_expr(v)}" for k, v in args.items()
    )


def print_netlist(ast: NetlistAST) -> str:
    """Render an AST back to canonical netlist text (parse-print-parse
    is a fixpoint on the AST)."""
    lines = []
    for s in ast.spaces:
        key = "cutoff" if s.kind == "fock" else "dim"
        lines.append(f"space {s.kind}({key}={s.size}) as {s.label}")
    for s in ast.signals:
        if s.kind == "sampled":
            body = f'"{s.args["path"]}"'
        elif s.kind == "constant":
            body = _print_expr(s.args["value"])
        else:
            body = _print_kwargs(s.args)
        lines.append(f"signal {s.name} = {s.kind}({body})")
    for c in ast.components:
        if c.kind == "SYS":
            body = "L=" + _print_vector(c.args["L"])
        elif c.kind == "HAM":
            body = _print_expr(c.args["H"])
            if "channels" in c.args:
                body += f", channels={c.args['channels']}"
        elif c.kind == "BS":
            body = "T=[" + ", ".join(_print_vector(row) for row in c.args["T"]) + "]"
        elif c.kind == "ADD":
            body = "u=" + _print_vector(c.args["u"])
        elif c.kind == "CAVITY":
            body = _print_kwargs(c.args)
        else:  # pragma: no cover
            raise TypeError(c.kind)
        lines.append(f"component {c.name} = {c.kind}({body})")
    lines.append(f"network {ast.network.name} = " + " <| ".join(ast.network.chain))
    return "\n".join(lines) + "\n"


# -- semantic analysis ----------------------------------------------------

#: Most states the composite space may have; a larger space is refused at
#: the `space` line that crosses the bound, before anything is allocated.
#: From d = 100 operators are CSR (``hilbert.SPARSE_MIN_DIM``), so the
#: reduction holds no dense d×d array, which takes 256 MiB at this bound: a
#: closed chain at d = 4096 reduces and runs in about 2 MiB (tracemalloc).
#: A master-equation run holds its dense ρ and RK4 workspace, 10.3 such
#: arrays on the two-cavity cascade at d = 196, so about 2.6 GiB here.
MAX_DIM = 4096

#: The one-dimensional space on which a scalar literal is evaluated
#: (:meth:`_Analyzer.const_scalar`), where c·I is the 1×1 matrix [c].
SCALAR_SPACE = HilbertSpace.generic("scalar", 1)


@dataclass
class TraceStep:
    component: str
    summary: str


@dataclass
class CompiledNetlist:
    space: HilbertSpace
    signals: dict[str, Signal]
    components: dict[str, SLHTriple]
    network_name: str
    chain: list[str]
    triple: SLHTriple
    trace: list[TraceStep]


def triple_summary(g: SLHTriple) -> str:
    """One-line symbolic summary (monomial structure only)."""
    s_rows = "; ".join(",".join("0" if t == 0 else "[1]" for t in row) for row in g.T)
    l_entries = ",".join(str(entry) for entry in g.L)
    return f"channels={g.channels} S=[{s_rows}] L=[{l_entries}] H={g.H}"


def _is_finite(polys: Sequence[OpPolynomial]) -> bool:
    """Whether every coefficient entry of every polynomial is finite."""
    return all(np.isfinite(_values(c)).all() for p in polys for c in p.terms.values())


def _entries(g: SLHTriple) -> list[OpPolynomial]:
    """Every polynomial of the triple, L then H; T is unitary, so finite."""
    return [*g.L, g.H]


class _Analyzer:
    def __init__(self, ast: NetlistAST, base_dir: str = "."):
        self.ast = ast
        self.base_dir = base_dir
        self.space: HilbertSpace | None = None
        self.signals: dict[str, Signal] = {}
        self.components: dict[str, SLHTriple] = {}
        self.names: dict[str, tuple] = {}

    def fail(self, message: str, pos) -> None:
        raise NetlistSemanticError(message, pos[0], pos[1])

    def declare(self, name: str, pos):
        if name in self.names:
            prev = self.names[name]
            self.fail(f"duplicate declaration of {name!r} (first at line {prev[0]})", pos)
        self.names[name] = pos

    def run(self) -> CompiledNetlist:
        ast = self.ast
        if not ast.spaces:
            self.fail("netlist declares no space", ast.network.pos)
        factors, dim = [], 1
        for s in ast.spaces:
            self.declare(s.label, s.pos)
            if s.kind == "fock":
                if s.size < 1:
                    self.fail(f"cutoff must be >= 1, got {s.size}", s.pos)
                factors.append(fock_factor(s.label, s.size))
            else:
                if s.size < 1:
                    self.fail(f"dim must be >= 1, got {s.size}", s.pos)
                factors.append(generic_factor(s.label, s.size))
            dim *= factors[-1].dim
            if dim > MAX_DIM:
                self.fail(f"space dimension {dim} exceeds the limit of {MAX_DIM}", s.pos)
        self.space = HilbertSpace(factors)

        for s in ast.signals:
            self.declare(s.name, s.pos)
            self.signals[s.name] = self.build_signal(s)
        for c in ast.components:
            self.declare(c.name, c.pos)
            self.components[c.name] = self.build_component(c)

        for name in ast.network.chain:
            if name not in self.components:
                self.fail(f"undeclared component {name!r} in network", ast.network.pos)

        triple, trace = self.reduce(ast.network)
        return CompiledNetlist(
            self.space,
            self.signals,
            self.components,
            ast.network.name,
            list(ast.network.chain),
            triple,
            trace,
        )

    # -- signals ----------------------------------------------------------

    def const_scalar(self, node, what: str, real: bool = False) -> complex:
        """The value c of a scalar literal: a gamma, an omega, a signal
        argument, a BS entry or a sqrt argument.

        :meth:`eval_expr` computes it on ``SCALAR_SPACE``, where c·I is
        the 1×1 matrix [c], not on the file's space: every step is the one
        a dense d×d c·I makes at entry [0, 0], whose off-diagonal zeros
        never reach that entry, so c has the bits it has there, signed
        zeros included, whatever the file's d.  An operator or a signal is
        refused at its position, and so is a complex value where ``real``
        asks for a real one."""
        p = self.eval_expr(node, allow_signals=False, allow_ops=False, space=SCALAR_SPACE)
        c = complex(p.terms[ONE][0, 0]) if p.terms else 0j  # p is c·I
        if real:
            if c.imag != 0:  # NaN is not 0, so a NaN imaginary part fails too
                self.fail(f"{what} must be real", getattr(node, "pos", (0, 0)))
            return c.real
        return c

    def build_signal(self, decl: SignalDecl) -> Signal:
        if decl.kind == "constant":
            return ConstantSignal(decl.name, self.const_scalar(decl.args["value"], "constant"))
        if decl.kind == "complex_exponential":
            return ComplexExponentialSignal(
                decl.name,
                self.const_scalar(decl.args["amplitude"], "amplitude"),
                self.const_scalar(decl.args["frequency"], "frequency", real=True),
                self.const_scalar(decl.args["phase"], "phase", real=True)
                if "phase" in decl.args
                else 0.0,
            )
        if decl.kind == "gaussian_pulse":
            try:
                return GaussianPulseSignal(
                    decl.name,
                    self.const_scalar(decl.args["amplitude"], "amplitude"),
                    self.const_scalar(decl.args["center"], "center", real=True),
                    self.const_scalar(decl.args["width"], "width", real=True),
                )
            except ValueError as exc:
                self.fail(str(exc), decl.pos)
        if decl.kind == "sampled":
            path = os.path.join(self.base_dir, decl.args["path"])
            try:
                return SampledSignal.from_csv(decl.name, path)
            except (OSError, ValueError) as exc:
                self.fail(f"cannot load sampled signal: {exc}", decl.pos)
        raise TypeError(decl.kind)  # pragma: no cover

    # -- expressions ------------------------------------------------------

    def eval_expr(self, node, allow_signals=True, allow_ops=True,
                  space: HilbertSpace | None = None) -> OpPolynomial:
        """Evaluate to an OpPolynomial on ``space`` (the file's space by
        default), type-checking as we go; a scalar c is the polynomial
        c·I, and the allow_* checks keep it scalar."""
        if space is None:
            space = self.space
        if isinstance(node, Num):
            return OpPolynomial.scalar(space, node.value * (1j if node.imag else 1))
        if isinstance(node, IdentityLit):
            if not allow_ops:
                self.fail("operator not allowed here", node.pos)
            return OpPolynomial.constant(identity(space))
        if isinstance(node, ModeOp):
            if not allow_ops:
                self.fail("operator not allowed here", node.pos)
            if node.label not in space:
                self.fail(f"unknown space factor {node.label!r}", node.pos)
            try:
                op = MODE_OPERATORS[node.kind](space, node.label)
            except ValueError as exc:
                self.fail(str(exc), node.pos)
            return OpPolynomial.constant(op)
        if isinstance(node, Ref):
            if node.name not in self.signals:
                self.fail(f"undeclared signal {node.name!r}", node.pos)
            if not allow_signals:
                self.fail("signal not allowed here", node.pos)
            return OpPolynomial.of_signal(space, node.name)
        if isinstance(node, Neg):
            return -self.eval_expr(node.arg, allow_signals, allow_ops, space)
        if isinstance(node, Dagger):
            return self.eval_expr(node.arg, allow_signals, allow_ops, space).dagger()
        if isinstance(node, Sqrt):
            c = self.const_scalar(node.arg, "sqrt argument", real=True)
            if c < 0:
                self.fail("sqrt argument must be nonnegative", node.pos)
            return OpPolynomial.scalar(space, math.sqrt(c))
        if isinstance(node, BinOp):
            left = self.eval_expr(node.left, allow_signals, allow_ops, space)
            right = self.eval_expr(node.right, allow_signals, allow_ops, space)
            try:
                # finite operands overflow only here; the check below reports it
                with np.errstate(over="ignore", invalid="ignore"):
                    if node.op == "*":
                        value = left * right
                    else:
                        value = left + right if node.op == "+" else left - right
            except ValueError as exc:
                self.fail(str(exc), node.pos)
            if not _is_finite([value]):
                self.fail(f"'{node.op}' overflows: its value is not finite", node.pos)
            return value
        raise TypeError(f"unknown expression node {node!r}")  # pragma: no cover

    # -- components -------------------------------------------------------

    def build_component(self, decl: ComponentDecl) -> SLHTriple:
        # finite keyword values overflow only here; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            g = self.construct(decl)
        if not _is_finite(_entries(g)):
            self.fail(f"component {decl.name!r} overflows: its value is not finite", decl.pos)
        return g

    def construct(self, decl: ComponentDecl) -> SLHTriple:
        try:
            if decl.kind == "SYS":
                return system_coupling([self.eval_expr(e) for e in decl.args["L"]], self.space)
            if decl.kind == "HAM":
                return pure_hamiltonian(
                    self.eval_expr(decl.args["H"]), self.space, decl.args.get("channels", 1)
                )
            if decl.kind == "BS":
                rows = decl.args["T"]
                n = len(rows)
                if any(len(r) != n for r in rows):
                    self.fail("BS matrix must be square", decl.pos)
                T = np.empty((n, n), dtype=complex)
                for i, row in enumerate(rows):
                    for j, e in enumerate(row):
                        T[i, j] = self.const_scalar(e, "BS entry")
                return beam_splitter(T, self.space)
            if decl.kind == "ADD":
                entries = [self.eval_expr(e, allow_ops=False) for e in decl.args["u"]]
                return signal_adder(entries, self.space)
            if decl.kind == "CAVITY":
                mode = decl.args.get("mode") or self.space.sole_fock_label()
                if mode is None:
                    self.fail("CAVITY needs mode= when there is not exactly one Fock factor", decl.pos)
                return cavity(
                    self.space,
                    mode,
                    self.const_scalar(decl.args["gamma"], "gamma", real=True),
                    self.const_scalar(decl.args["omega"], "omega", real=True),
                )
        except NetlistError:
            raise
        except ValueError as exc:
            self.fail(str(exc), decl.pos)
        raise TypeError(decl.kind)  # pragma: no cover

    # -- reduction --------------------------------------------------------

    def reduce(self, network: NetworkDecl) -> tuple[SLHTriple, list[TraceStep]]:
        chain = network.chain
        steps = series_steps([self.components[name] for name in chain])
        trace: list[TraceStep] = []
        try:
            # finite components overflow only here; the check below reports it
            with np.errstate(over="ignore", invalid="ignore"):
                for name, acc in zip(reversed(chain), steps):
                    if not _is_finite(_entries(acc)):
                        raise ValueError("overflow: the running product is not finite")
                    trace.append(TraceStep(name, triple_summary(acc)))
        except ValueError as exc:  # a channel mismatch, a degree cap or an overflow
            at = -1 - len(trace)
            where = f"composing {chain[at]!r}"
            if network.chain_pos:  # a parsed chain; a hand-built one has no positions
                line, col = network.chain_pos[at]
                where += f" at line {line}, col {col}"
            raise NetlistReductionError(f"{exc}, {where}") from exc
        return acc, trace


def compile_netlist(ast: NetlistAST, base_dir: str = ".") -> CompiledNetlist:
    """Type-check declarations, build the components, and reduce the chain."""
    return _Analyzer(ast, base_dir).run()
