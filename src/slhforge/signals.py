"""Scalar control signals and operator-coefficient polynomials in them.

Time-dependent couplings and Hamiltonians are carried as polynomials in
named scalar signals u (and their conjugates) with :class:`Operator`
coefficients, so compositions stay exact symbolic objects until they are
evaluated at a time t against concrete signal bindings.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .hilbert import (
    HilbertSpace,
    Operator,
    _complex,
    _conj_transpose,
    _equal,
    _freeze,
    _identity_matrix,
    _matrix,
    _max_abs,
    _nonzero,
    _stored,
    _values,
)

#: Guard against pathological compositions; nothing in scope exceeds degree 2.
DEGREE_CAP = 8


# -- signals --------------------------------------------------------------


class Signal:
    """A named scalar function of time.

    Subclasses implement ``__call__(t)``.  A compiled run reads a signal
    through :meth:`sample`, once per run on the array of its stage times.
    The Gaussian pulse and the sampled table sample in one vectorized
    pass; every other kind, and a subclass that defines only ``__call__``,
    is sampled by calling it once per time.
    """

    def __init__(self, name: str):
        self.name = name

    def __call__(self, t: float) -> complex:  # pragma: no cover - abstract
        raise NotImplementedError

    def sample(self, times: np.ndarray) -> np.ndarray:
        """The values at the 1-d float array ``times``, as a complex array."""
        return np.fromiter(map(self, times), dtype=complex, count=times.size)

    @property
    def horizon(self) -> tuple[float, float] | None:
        """Time interval outside which evaluation is an error, or None."""
        return None


class ConstantSignal(Signal):
    def __init__(self, name: str, value: complex):
        super().__init__(name)
        self.value = complex(value)

    def __call__(self, t: float) -> complex:
        return self.value


class ComplexExponentialSignal(Signal):
    """amplitude * exp(i * (frequency * t + phase))"""

    def __init__(self, name: str, amplitude: complex, frequency: float, phase: float = 0.0):
        super().__init__(name)
        self.amplitude = complex(amplitude)
        self.frequency = float(frequency)
        self.phase = float(phase)

    def __call__(self, t: float) -> complex:
        return self.amplitude * np.exp(1j * (self.frequency * t + self.phase))


class GaussianPulseSignal(Signal):
    """amplitude * exp(-(t - center)^2 / (2 width^2))"""

    def __init__(self, name: str, amplitude: complex, center: float, width: float):
        super().__init__(name)
        if width <= 0:
            raise ValueError("pulse width must be positive")
        self.amplitude = complex(amplitude)
        self.center = float(center)
        self.width = float(width)

    def __call__(self, t: float) -> complex:
        x = (t - self.center) / self.width
        return self.amplitude * math.exp(-0.5 * x * x)

    def sample(self, times: np.ndarray) -> np.ndarray:
        # a far wing is 0, as math.exp makes it, even where x overflows
        with np.errstate(over="ignore"):
            x = (times - self.center) / self.width
            return self.amplitude * np.exp(-0.5 * x * x)


class SampledSignal(Signal):
    """Linearly interpolated table of samples; extrapolation is rejected."""

    def __init__(self, name: str, times, values):
        super().__init__(name)
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=complex)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two samples")
        if values.shape != times.shape:
            raise ValueError("times and values differ in length")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise ValueError("sample times and values must be finite")
        if not np.all(np.diff(times) > 0):
            raise ValueError("sample times must be strictly increasing")
        self.times = times
        self.values = values

    @property
    def horizon(self) -> tuple[float, float]:
        return (float(self.times[0]), float(self.times[-1]))

    def __call__(self, t: float) -> complex:
        lo, hi = self.horizon
        if t < lo or t > hi:
            raise ValueError(f"signal {self.name!r}: t={t} outside sampled horizon [{lo}, {hi}]")
        re = np.interp(t, self.times, self.values.real)
        im = np.interp(t, self.times, self.values.imag)
        return complex(re, im)

    def sample(self, times: np.ndarray) -> np.ndarray:
        lo, hi = self.horizon
        outside = (times < lo) | (times > hi)
        if outside.any():
            self(times[outside.argmax()])  # raises the call's message for the first one
        out = np.empty(times.shape, dtype=complex)
        out.real = np.interp(times, self.times, self.values.real)
        out.imag = np.interp(times, self.times, self.values.imag)
        return out

    @classmethod
    def from_csv(cls, name: str, path) -> "SampledSignal":
        """Read a `t,re,im` CSV table (header row required); a row without
        three numeric fields, or one the csv module cannot split, is an
        error that names its line."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:  # only the reader raises csv.Error
                header = next(reader, None)
                if header is None or [h.strip() for h in header] != ["t", "re", "im"]:
                    raise ValueError(f"{path}: expected header 't,re,im', got {header}")
                times, values = [], []
                for row in reader:
                    if not row:
                        continue
                    where = f"{path}: line {reader.line_num}"
                    if len(row) != 3:
                        raise ValueError(f"{where}: expected 3 fields t,re,im, got {len(row)}")
                    try:
                        t, re, im = (float(x) for x in row)
                    except ValueError as exc:
                        raise ValueError(f"{where}: {exc}") from None
                    times.append(t)
                    values.append(complex(re, im))
            except csv.Error as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        return cls(name, times, values)


Bindings = Mapping[str, Signal]


# -- monomials ------------------------------------------------------------


@dataclass(frozen=True)
class SignalMonomial:
    """Product of signal powers u^p * conj(u)^q, canonically ordered by name.

    ``entries`` is a sorted tuple of (name, power, conj_power) with
    power + conj_power > 0; the empty tuple is the constant monomial 1.
    """

    entries: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self):
        names = [e[0] for e in self.entries]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("monomial entries must be sorted by unique name")
        for name, p, q in self.entries:
            if p < 0 or q < 0 or p + q == 0:
                raise ValueError(f"bad exponents for {name!r}: ({p}, {q})")

    @classmethod
    def of(cls, name: str, power: int = 1, conj_power: int = 0) -> "SignalMonomial":
        return cls(((name, power, conj_power),))

    @property
    def degree(self) -> int:
        return sum(p + q for _, p, q in self.entries)

    def __mul__(self, other: "SignalMonomial") -> "SignalMonomial":
        exps: dict[str, list[int]] = {}
        for name, p, q in self.entries + other.entries:
            acc = exps.setdefault(name, [0, 0])
            acc[0] += p
            acc[1] += q
        return SignalMonomial(tuple((n, pq[0], pq[1]) for n, pq in sorted(exps.items())))

    def dagger(self) -> "SignalMonomial":
        # swapping each entry's powers keeps the entries valid, so the
        # result is not checked again
        m = object.__new__(SignalMonomial)
        object.__setattr__(m, "entries", tuple((n, q, p) for n, p, q in self.entries))
        return m

    def names(self) -> set[str]:
        return {n for n, _, _ in self.entries}

    def evaluate(self, t: float, bindings: Bindings) -> complex:
        value = 1.0 + 0.0j
        for name, p, q in self.entries:
            if name not in bindings:
                raise KeyError(f"unbound signal {name!r}")
            v = complex(bindings[name](t))
            if p:
                value *= v**p
            if q:
                value *= v.conjugate() ** q
        return value

    def __str__(self) -> str:
        if not self.entries:
            return "1"
        parts = []
        for name, p, q in self.entries:
            if p:
                parts.append(name if p == 1 else f"{name}^{p}")
            if q:
                parts.append(f"conj({name})" if q == 1 else f"conj({name})^{q}")
        return "*".join(parts)


ONE = SignalMonomial()


# -- operator polynomials -------------------------------------------------


class OpPolynomial:
    """Polynomial in signal monomials with Operator coefficients.

    The representation is canonical: coefficients that are exactly the
    zero matrix are pruned, so two polynomials built by different
    association orders of the same exact expression compare equal.

    Coefficients are read-only matrices in the storage form of the space
    (``hilbert``'s rule: C-ordered complex arrays below ``SPARSE_MIN_DIM``,
    canonical CSR from there on).  The constructor copies the dense or
    scipy sparse matrices a caller hands in, so changing them afterwards
    leaves the polynomial unchanged.  The algebra copies nothing: a result
    shares the coefficients it does not change with its operands (and
    ``constant`` shares its operator's matrix) and freezes the new
    matrices it has just computed; no sum, product or scale writes into
    a matrix made before it.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: HilbertSpace, terms: Mapping | None = None):
        d = space.total_dim
        copied = {}
        for mono, coeff in (terms or {}).items():
            coeff = _stored(coeff, d)
            if coeff.shape != (d, d):
                raise ValueError(f"coefficient shape {coeff.shape} does not match space dim {d}")
            copied[mono] = coeff
        self._adopt(space, copied)

    @classmethod
    def _shared(cls, space: HilbertSpace, terms: Mapping) -> "OpPolynomial":
        """A polynomial on (d, d) matrices in the space's storage form that
        nothing outside the algebra can write: results it has just
        computed, or coefficients of other polynomials.  They are frozen,
        not copied, and a CSR result is made canonical first."""
        p = cls.__new__(cls)
        p._adopt(space, terms)
        return p

    def _adopt(self, space: HilbertSpace, terms: Mapping):
        clean = {}
        for mono, coeff in terms.items():
            if mono.degree > DEGREE_CAP:
                raise ValueError(f"monomial {mono} exceeds degree cap {DEGREE_CAP}")
            if _nonzero(coeff):
                _freeze(coeff)
                clean[mono] = coeff
        self.space = space
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, space: HilbertSpace) -> "OpPolynomial":
        return cls._shared(space, {})

    @classmethod
    def constant(cls, op: Operator) -> "OpPolynomial":
        return cls._shared(op.space, {ONE: op.matrix})

    @classmethod
    def scalar(cls, space: HilbertSpace, c: complex) -> "OpPolynomial":
        return cls._shared(space, {ONE: complex(c) * _identity_matrix(space.total_dim)})

    @classmethod
    def of_signal(cls, space: HilbertSpace, name: str, coeff: Operator | complex = 1.0) -> "OpPolynomial":
        if isinstance(coeff, Operator):
            mat = coeff.matrix
            if coeff.space != space:
                raise ValueError("coefficient space mismatch")
        else:
            mat = complex(coeff) * _identity_matrix(space.total_dim)
        return cls._shared(space, {SignalMonomial.of(name): mat})

    # -- algebra ----------------------------------------------------------

    def _check_space(self, other: "OpPolynomial"):
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")

    def __add__(self, other: "OpPolynomial") -> "OpPolynomial":
        return OpPolynomial._sum((self, other))

    @classmethod
    def _sum(cls, polys: Iterable["OpPolynomial"]) -> "OpPolynomial":
        """The sum ((p₁ + p₂) + p₃) + … of one or more polynomials, bit
        for bit: a coefficient that cancels to exactly zero is dropped at
        that step, as each ``+`` drops it.  A zero operand takes no part:
        the sum of one nonzero operand is that operand, and of none the first."""
        polys = iter(polys)  # each operand is dropped once it is added
        first = sole = next(polys)  # sole: the operand the sum is, until it is new
        for p in polys:
            first._check_space(p)
            if p.is_zero():
                continue
            if sole is not None:
                if sole.is_zero():
                    sole = p
                    continue
                terms, sole = dict(sole.terms), None
            for mono, coeff in p.terms.items():
                if mono not in terms:
                    terms[mono] = coeff
                elif _nonzero(total := terms[mono] + coeff):
                    terms[mono] = total
                else:
                    del terms[mono]
        return sole if sole is not None else cls._shared(first.space, terms)

    def __sub__(self, other: "OpPolynomial") -> "OpPolynomial":
        return self + (-other)

    def __neg__(self) -> "OpPolynomial":
        return OpPolynomial._shared(self.space, {m: -c for m, c in self.terms.items()})

    def scale(self, c: complex) -> "OpPolynomial":
        """c times each coefficient, the scalar as the left operand, as a
        product with the coefficient c·I takes it."""
        c = complex(c)
        return OpPolynomial._shared(self.space, {m: c * coeff for m, coeff in self.terms.items()})

    def __mul__(self, other) -> "OpPolynomial":
        """The product, decided by the coefficients alone: one that is
        exactly c·I multiplies the other as the scalar c, at any dimension.

        On a self-conjugate signal monomial, u·conj(u) or the constant
        monomial, both parts of a coefficient product are formed from
        separate real products, so that conj(z)·z rounds to a real number
        and X†X to a Hermitian matrix: the series product's Im(L†SL) then
        vanishes exactly where the algebra says it does, as for a pair of
        adders or of couplings s·X and −s·X that cancel.  Below
        ``SPARSE_MIN_DIM`` the real products are BLAS's; from there on
        they are CSR products, which sum each (XᵀY)ᵢⱼ in the order of k, so
        X†X is Hermitian to the bit at every d.
        """
        if isinstance(other, OpPolynomial):
            return OpPolynomial._shared(self.space, self._product_terms(other))
        return self.scale(other)

    def _product_terms(self, other: "OpPolynomial") -> dict:
        """The coefficients of self * other, unpruned, each a new matrix,
        the sum of its products in the order they are formed."""
        self._check_space(other)
        scalars = {m2: _identity_multiple(c2) for m2, c2 in other.terms.items()}
        terms = {}
        for m1, c1 in self.terms.items():
            s1 = _identity_multiple(c1)
            for m2, c2 in other.terms.items():
                mono = m1 * m2
                s2 = scalars[m2]
                if s1 is not None:
                    a, b, times = s1, c2, operator.mul
                elif s2 is not None:
                    a, b, times = c1, s2, operator.mul
                else:
                    a, b, times = c1, c2, operator.matmul
                if all(p == q for _, p, q in mono.entries):
                    prod = _complex(times(a.real, b.real) - times(a.imag, b.imag),
                                    times(a.real, b.imag) + times(a.imag, b.real))
                else:
                    prod = times(a, b)
                terms[mono] = terms[mono] + prod if mono in terms else prod
        return terms

    def __rmul__(self, c) -> "OpPolynomial":
        return self.scale(c)

    def dagger(self) -> "OpPolynomial":
        return OpPolynomial._shared(
            self.space, {m.dagger(): _conj_transpose(c) for m, c in self.terms.items()}
        )

    def imag(self) -> "OpPolynomial":
        """Formal operator imaginary part (p - p†)/(2i); self-adjoint.

        The bits and the monomial order are those of
        ``(p - p†).scale(-0.5j)``, without holding p† whole: at a monomial
        m with coefficient c, whose conjugate m† has coefficient c', the
        coefficient is (c - c'†)·s with s = -0.5j, c·s when m† has none
        and -c'†·s when m has none (a - b rounds as (-b) + a); every m of
        p comes first, then each m† that p lacks.
        """
        s = -0.5j
        terms = {}
        for m, c in self.terms.items():
            partner = self.terms.get(m.dagger())
            terms[m] = (c if partner is None else c - _conj_transpose(partner)) * s
        for m, c in self.terms.items():
            if m.dagger() not in self.terms:
                terms[m.dagger()] = -_conj_transpose(c) * s
        return OpPolynomial._shared(self.space, terms)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == ONE for m in self.terms)

    def signals(self) -> set[str]:
        names: set[str] = set()
        for m in self.terms:
            names |= m.names()
        return names

    def __eq__(self, other) -> bool:
        """Exact canonical comparison (entrywise float equality)."""
        if not isinstance(other, OpPolynomial) or self.space != other.space:
            return NotImplemented if not isinstance(other, OpPolynomial) else False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(_equal(self.terms[m], other.terms[m]) for m in self.terms)

    def __hash__(self):
        raise TypeError("OpPolynomial is not hashable")

    def adjoint_gap(self) -> float:
        """``self.dagger().max_coeff_diff(self)`` without building the
        dagger, NaN kept: at each monomial m, the largest |entry| of
        c(m†)† − c(m), or of c(m) when m† has none.  The gap at m† is the
        same (|conj z| = |z| and a − b = −(b − a) in floating point), so
        each pair is measured once, at whichever comes first."""
        gaps, measured = [], set()
        for mono, c in self.terms.items():
            if mono in measured:
                continue
            dual = mono.dagger()
            partner = self.terms.get(dual)
            if partner is not None:
                measured.add(dual)
            gaps.append(_max_abs(c if partner is None else _conj_transpose(partner) - c))
        return float(np.maximum.reduce(gaps, initial=0.0))  # np.max, NaN kept

    def max_coeff_diff(self, other: "OpPolynomial") -> float:
        """Largest |difference| over all coefficient entries, NaN if any is NaN."""
        self._check_space(other)
        diffs = []
        for mono in self.terms.keys() | other.terms.keys():
            a, b = self.terms.get(mono), other.terms.get(mono)
            diffs.append(_max_abs(b if a is None else a if b is None else a - b))
        return float(np.max(diffs, initial=0.0))

    # -- evaluation -------------------------------------------------------

    def evaluate(self, t: float, bindings: Bindings | None = None) -> Operator:
        bindings = bindings or {}
        none = np.arange(0)
        mat = _matrix(none, none, none, self.space.total_dim)  # zero
        for mono, coeff in self.terms.items():
            mat = mat + mono.evaluate(t, bindings) * coeff
        return Operator._adopt(self.space, mat)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"[{m}]" for m in sorted(self.terms, key=_mono_key))

    def __repr__(self) -> str:
        return f"OpPolynomial({len(self.terms)} terms, dim={self.space.total_dim})"


def _identity_multiple(c) -> complex | None:
    """c when the matrix is exactly c·I with c != 0, else None."""
    diagonal = c.diagonal()
    s = diagonal[0]
    if s != 0 and np.count_nonzero(_values(c)) == c.shape[0] and np.all(diagonal == s):
        return s
    return None


def _mono_key(m: SignalMonomial):
    return (m.degree, m.entries)
