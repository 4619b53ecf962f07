"""Scalar control signals and operator-coefficient polynomials in them.

Time-dependent couplings and Hamiltonians are carried as polynomials in
named scalar signals u (and their conjugates) with :class:`Operator`
coefficients, so compositions stay exact symbolic objects until they are
evaluated at a time t against concrete signal bindings.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .hilbert import DEFAULT_TOL, HilbertSpace, Operator

#: Guard against pathological compositions; nothing in scope exceeds degree 2.
DEGREE_CAP = 8


# -- signals --------------------------------------------------------------


class Signal:
    """A named scalar function of time.  Subclasses implement __call__."""

    def __init__(self, name: str):
        self.name = name

    def __call__(self, t: float) -> complex:  # pragma: no cover - abstract
        raise NotImplementedError

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

    @classmethod
    def from_csv(cls, name: str, path) -> "SampledSignal":
        """Read a `t,re,im` CSV table (header row required)."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["t", "re", "im"]:
                raise ValueError(f"{path}: expected header 't,re,im', got {header}")
            times, values = [], []
            for row in reader:
                if not row:
                    continue
                t, re, im = (float(x) for x in row)
                times.append(t)
                values.append(complex(re, im))
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
        return SignalMonomial(tuple((n, q, p) for n, p, q in self.entries))

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
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: HilbertSpace, terms: Mapping[SignalMonomial, np.ndarray] | None = None):
        self.space = space
        clean: dict[SignalMonomial, np.ndarray] = {}
        d = space.total_dim
        for mono, coeff in (terms or {}).items():
            coeff = np.asarray(coeff, dtype=complex)
            if coeff.shape != (d, d):
                raise ValueError(f"coefficient shape {coeff.shape} does not match space dim {d}")
            if mono.degree > DEGREE_CAP:
                raise ValueError(f"monomial {mono} exceeds degree cap {DEGREE_CAP}")
            if np.any(coeff):
                c = coeff.copy()
                c.setflags(write=False)
                clean[mono] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, space: HilbertSpace) -> "OpPolynomial":
        return cls(space)

    @classmethod
    def constant(cls, op: Operator) -> "OpPolynomial":
        return cls(op.space, {ONE: op.matrix})

    @classmethod
    def scalar(cls, space: HilbertSpace, c: complex) -> "OpPolynomial":
        return cls(space, {ONE: complex(c) * np.eye(space.total_dim)})

    @classmethod
    def of_signal(cls, space: HilbertSpace, name: str, coeff: Operator | complex = 1.0) -> "OpPolynomial":
        if isinstance(coeff, Operator):
            mat = coeff.matrix
            if coeff.space != space:
                raise ValueError("coefficient space mismatch")
        else:
            mat = complex(coeff) * np.eye(space.total_dim)
        return cls(space, {SignalMonomial.of(name): mat})

    # -- algebra ----------------------------------------------------------

    def _check_space(self, other: "OpPolynomial"):
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space} vs {other.space}")

    def __add__(self, other: "OpPolynomial") -> "OpPolynomial":
        self._check_space(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms[mono] + coeff if mono in terms else coeff
        return OpPolynomial(self.space, terms)

    def __sub__(self, other: "OpPolynomial") -> "OpPolynomial":
        return self + (-other)

    def __neg__(self) -> "OpPolynomial":
        return OpPolynomial(self.space, {m: -c for m, c in self.terms.items()})

    def scale(self, c: complex) -> "OpPolynomial":
        c = complex(c)
        return OpPolynomial(self.space, {m: coeff * c for m, coeff in self.terms.items()})

    def __mul__(self, other) -> "OpPolynomial":
        if isinstance(other, OpPolynomial):
            self._check_space(other)
            terms: dict[SignalMonomial, np.ndarray] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = m1 * m2
                    prod = c1 @ c2
                    terms[mono] = terms[mono] + prod if mono in terms else prod
            return OpPolynomial(self.space, terms)
        return self.scale(other)

    def __rmul__(self, c) -> "OpPolynomial":
        return self.scale(c)

    def dagger(self) -> "OpPolynomial":
        return OpPolynomial(
            self.space, {m.dagger(): c.conj().T for m, c in self.terms.items()}
        )

    def imag(self) -> "OpPolynomial":
        """Formal operator imaginary part (p - p†)/(2i); self-adjoint."""
        return (self - self.dagger()).scale(-0.5j)

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

    def constant_part(self) -> Operator:
        mat = self.terms.get(ONE)
        d = self.space.total_dim
        return Operator(self.space, mat if mat is not None else np.zeros((d, d)))

    def __eq__(self, other) -> bool:
        """Exact canonical comparison (entrywise float equality)."""
        if not isinstance(other, OpPolynomial) or self.space != other.space:
            return NotImplemented if not isinstance(other, OpPolynomial) else False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(np.array_equal(self.terms[m], other.terms[m]) for m in self.terms)

    def __hash__(self):
        raise TypeError("OpPolynomial is not hashable")

    def approx_equal(self, other: "OpPolynomial", tol: float = DEFAULT_TOL) -> bool:
        """Coefficient-wise comparison within tol (max-abs norm); NaN fails."""
        return self.max_coeff_diff(other) <= tol

    def max_coeff_diff(self, other: "OpPolynomial") -> float:
        """Largest |difference| over all coefficient entries, NaN if any is NaN."""
        self._check_space(other)
        d = self.space.total_dim
        z = np.zeros((d, d))
        diffs = [
            np.max(np.abs(self.terms.get(mono, z) - other.terms.get(mono, z)))
            for mono in self.terms.keys() | other.terms.keys()
        ]
        return float(np.max(diffs, initial=0.0))

    # -- evaluation -------------------------------------------------------

    def evaluate(self, t: float, bindings: Bindings | None = None) -> Operator:
        bindings = bindings or {}
        mat = np.zeros((self.space.total_dim, self.space.total_dim), dtype=complex)
        for mono, coeff in self.terms.items():
            mat = mat + mono.evaluate(t, bindings) * coeff
        return Operator(self.space, mat)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"[{m}]" for m in sorted(self.terms, key=_mono_key))

    def __repr__(self) -> str:
        return f"OpPolynomial({len(self.terms)} terms, dim={self.space.total_dim})"


def _mono_key(m: SignalMonomial):
    return (m.degree, m.entries)
