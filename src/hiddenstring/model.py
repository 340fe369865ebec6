"""Binary quadratic models with exact rational coefficients.

Two equivalent forms are supported:

* QUBO over binary variables ``s_i in {0, 1}``::

      E(s) = sum_{i<j} J_ij s_i s_j + sum_i h_i s_i

* Ising over spin variables ``sigma_i in {-1, +1}``, plus a constant offset.

The substitution ``sigma_i = 2 s_i - 1`` maps one onto the other. All
coefficients are stored as :class:`fractions.Fraction`, so conversions and
energy evaluations are exact and every equivalence check in the test suite
is a plain equality, with no tolerances. The substitution only ever
introduces denominators 2 and 4.

Quadratic terms are stored once per unordered pair, keyed in label order,
matching the ``i < j`` sum above.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "BitVector",
    "VarKind",
    "VarLabel",
    "QuboModel",
    "IsingModel",
    "Spectrum",
    "qubo_energy",
    "ising_energy",
    "qubo_to_ising",
    "ising_to_qubo",
    "exhaustive_solve",
    "EXHAUSTIVE_CAP",
]

# Exhaustive enumeration walks all 2^n assignments; the cap is a guard
# against accidentally asking for 2^512 of them.
EXHAUSTIVE_CAP = 24


class BitVector:
    """Immutable fixed-length sequence of 0/1 values.

    Index ``k`` holds bit ``k`` of the corresponding integer, i.e. index 0
    is the least significant bit. Only the integer and the length are
    stored; the ``bits`` tuple is built when asked for, so a vector made
    from an integer costs no per-bit work until it is read bit by bit.
    """

    __slots__ = ("_value", "_n")

    def __init__(self, bits: Iterable[int]):
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0 or 1, got {bits!r}")
        self._value = sum(b << k for k, b in enumerate(bits))
        self._n = len(bits)

    @classmethod
    def from_integer(cls, value: int, n: int) -> "BitVector":
        """Bits of ``value`` in LSB-first order; ``value`` must fit in ``n`` bits."""
        if value < 0:
            raise ValueError(f"value must be non-negative, got {value}")
        if n < 0 or value >> n:
            raise ValueError(f"value {value} does not fit in {n} bits")
        return cls._of(value, n)

    @classmethod
    def _of(cls, value: int, n: int) -> "BitVector":
        # Internal fast path: caller guarantees 0 <= value < 2**n.
        bv = object.__new__(cls)
        bv._value = value
        bv._n = n
        return bv

    def to_integer(self) -> int:
        return self._value

    @property
    def bits(self) -> tuple[int, ...]:
        v = self._value
        return tuple((v >> k) & 1 for k in range(self._n))

    def popcount(self) -> int:
        return self._value.bit_count()

    def __xor__(self, other: "BitVector") -> "BitVector":
        if not isinstance(other, BitVector):
            return NotImplemented
        if other._n != self._n:
            raise ValueError(
                f"length mismatch: {self._n} vs {other._n} bits"
            )
        return BitVector._of(self._value ^ other._value, self._n)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k):
        if isinstance(k, slice):
            return self.bits[k]
        k = operator.index(k)
        if k < 0:
            k += self._n
        if not 0 <= k < self._n:
            raise IndexError("BitVector index out of range")
        return (self._value >> k) & 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __eq__(self, other) -> bool:
        if isinstance(other, BitVector):
            return self._n == other._n and self._value == other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._n, self._value))

    def __repr__(self) -> str:
        return f"BitVector({''.join(map(str, reversed(self.bits)))}={self._value}, n={self._n})"


class VarKind(enum.Enum):
    """Role of a model variable.

    W and Y are the bit variables of the two search integers; GW and GY are
    the two single-bit stand-ins for the black-box outputs in the literal
    Simon model; PLAIN is for generic models.
    """

    W = "w"
    Y = "y"
    GW = "gw"
    GY = "gy"
    PLAIN = "x"


# A small int per kind, so that a label's hash does not depend on the
# process: string hashes are salted per process, and a pickled label keeps
# the hash it was built with.
_KIND_CODES = {kind: code for code, kind in enumerate(VarKind)}


@dataclass(frozen=True)
class VarLabel:
    """A model variable name: a kind plus an index (unused for GW/GY).

    The hash is computed once, at construction: models key every term by
    label, so building or compiling one hashes each label many times.
    """

    kind: VarKind
    index: int = 0

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("label index must be non-negative")
        if self.kind in (VarKind.GW, VarKind.GY) and self.index != 0:
            raise ValueError(f"{self.kind.value} labels carry no index")
        code = _KIND_CODES.get(self.kind)
        if code is None:
            raise TypeError(f"label kind must be a VarKind, got {self.kind!r}")
        object.__setattr__(self, "_hash", hash((code, self.index)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def w(cls, i: int) -> "VarLabel":
        return cls(VarKind.W, i)

    @classmethod
    def y(cls, i: int) -> "VarLabel":
        return cls(VarKind.Y, i)

    @classmethod
    def gw(cls) -> "VarLabel":
        return cls(VarKind.GW)

    @classmethod
    def gy(cls) -> "VarLabel":
        return cls(VarKind.GY)

    @classmethod
    def plain(cls, i: int) -> "VarLabel":
        return cls(VarKind.PLAIN, i)

    def __str__(self) -> str:
        if self.kind in (VarKind.GW, VarKind.GY):
            return self.kind.value
        return f"{self.kind.value}{self.index}"

    _PARSE_RE = re.compile(r"^(w|y|x)(\d+)$|^(gw|gy)$")

    @classmethod
    def parse(cls, text: str) -> "VarLabel":
        m = cls._PARSE_RE.match(text)
        if m is None:
            raise ValueError(f"unrecognized variable label {text!r}")
        if m.group(3) is not None:
            return cls(VarKind(m.group(3)))
        return cls(VarKind(m.group(1)), int(m.group(2)))


def _as_coefficient(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(
            f"coefficients must be exact (int, Fraction or string), got float {value!r}"
        )
    if type(value) is Fraction:
        return value  # immutable, so shared as it is
    return Fraction(value)


def _normalize_terms(labels, linear, quadratic):
    pos = {lab: k for k, lab in enumerate(labels)}
    if len(pos) != len(labels):
        raise ValueError("duplicate labels in model")
    lin = {}
    for lab, coeff in (linear or {}).items():
        if lab not in pos:
            raise ValueError(f"linear term on unknown label {lab}")
        c = _as_coefficient(coeff)
        if c:
            lin[lab] = c
    quad = {}
    for pair, coeff in (quadratic or {}).items():
        a, b = pair
        if a not in pos or b not in pos:
            raise ValueError(f"quadratic term on unknown label pair {pair}")
        if a == b:
            raise ValueError(f"quadratic term pairs label {a} with itself")
        if pos[a] > pos[b]:
            a, b = b, a
        if (a, b) in quad:
            raise ValueError(f"duplicate quadratic term for pair ({a}, {b})")
        c = _as_coefficient(coeff)
        if c:
            quad[(a, b)] = c
    return lin, quad


@dataclass(frozen=True)
class QuboModel:
    """Labeled binary quadratic model over 0/1 variables.

    ``linear`` maps a label to its bias h_i; ``quadratic`` maps an ordered
    pair of distinct labels (in label order) to its coupler J_ij. Absent
    entries are zero; zero coefficients are dropped at construction so that
    equal models compare equal.
    """

    labels: tuple[VarLabel, ...]
    linear: dict[VarLabel, Fraction]
    quadratic: dict[tuple[VarLabel, VarLabel], Fraction]

    def __init__(self, labels: Sequence[VarLabel], linear: Mapping = None, quadratic: Mapping = None):
        labels = tuple(labels)
        lin, quad = _normalize_terms(labels, linear, quadratic)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", quad)

    @property
    def n_vars(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def _compiled(self):
        # Not a dataclass field, so equality, hashing and repr ignore it.
        coeffs = list(self.linear.values()) + list(self.quadratic.values())
        den = math.lcm(1, *(c.denominator for c in coeffs))
        pos = {lab: k for k, lab in enumerate(self.labels)}
        h = [0] * self.n_vars
        for lab, c in self.linear.items():
            h[pos[lab]] = c.numerator * (den // c.denominator)
        couplers = tuple(
            (pos[a], pos[b], c.numerator * (den // c.denominator))
            for (a, b), c in self.quadratic.items()
        )
        return den, tuple(h), couplers

    def position(self, label: VarLabel) -> int:
        return self.labels.index(label)

    def linear_coefficient(self, label: VarLabel) -> Fraction:
        return self.linear.get(label, Fraction(0))

    def quadratic_coefficient(self, a: VarLabel, b: VarLabel) -> Fraction:
        return self.quadratic.get((a, b), self.quadratic.get((b, a), Fraction(0)))

    def __add__(self, other: "QuboModel") -> "QuboModel":
        """Coefficient-wise sum over the union of labels (left order first)."""
        if not isinstance(other, QuboModel):
            return NotImplemented
        labels = list(self.labels)
        seen = set(labels)
        for lab in other.labels:
            if lab not in seen:
                labels.append(lab)
                seen.add(lab)
        linear = dict(self.linear)
        for lab, c in other.linear.items():
            linear[lab] = linear.get(lab, Fraction(0)) + c
        quadratic = {k: v for k, v in self.quadratic.items()}
        pos = {lab: k for k, lab in enumerate(labels)}
        for (a, b), c in other.quadratic.items():
            if pos[a] > pos[b]:
                a, b = b, a
            quadratic[(a, b)] = quadratic.get((a, b), Fraction(0)) + c
        return QuboModel(labels, linear, quadratic)


@dataclass(frozen=True)
class IsingModel:
    """Same structure as :class:`QuboModel` over spins, plus a constant offset."""

    labels: tuple[VarLabel, ...]
    linear: dict[VarLabel, Fraction]
    quadratic: dict[tuple[VarLabel, VarLabel], Fraction]
    offset: Fraction

    def __init__(self, labels, linear=None, quadratic=None, offset=0):
        labels = tuple(labels)
        lin, quad = _normalize_terms(labels, linear, quadratic)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", quad)
        object.__setattr__(self, "offset", _as_coefficient(offset))

    @property
    def n_vars(self) -> int:
        return len(self.labels)


def _check_assignment_length(n_vars: int, values: Sequence) -> None:
    if len(values) != n_vars:
        raise ValueError(
            f"assignment has {len(values)} entries for a model with {n_vars} variables"
        )


def qubo_energy(model: QuboModel, s: Sequence[int]) -> Fraction:
    """Exact energy of a 0/1 assignment, in the model's label order."""
    _check_assignment_length(model.n_vars, s)
    bits = [int(b) for b in s]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("QUBO assignments take values 0 or 1")
    pos = {lab: k for k, lab in enumerate(model.labels)}
    e = Fraction(0)
    for lab, h in model.linear.items():
        if bits[pos[lab]]:
            e += h
    for (a, b), j in model.quadratic.items():
        if bits[pos[a]] and bits[pos[b]]:
            e += j
    return e


def ising_energy(model: IsingModel, sigma: Sequence[int]) -> Fraction:
    """Exact energy of a +/-1 spin assignment, including the offset."""
    _check_assignment_length(model.n_vars, sigma)
    spins = [int(v) for v in sigma]
    if any(v not in (-1, 1) for v in spins):
        raise ValueError("spin values must be -1 or +1")
    pos = {lab: k for k, lab in enumerate(model.labels)}
    e = model.offset
    for lab, h in model.linear.items():
        e += h * spins[pos[lab]]
    for (a, b), j in model.quadratic.items():
        e += j * spins[pos[a]] * spins[pos[b]]
    return e


def qubo_to_ising(q: QuboModel) -> IsingModel:
    """Rewrite a QUBO in spin variables via s_i = (1 + sigma_i) / 2.

    Energies agree exactly on corresponding assignments: for every s,
    ``qubo_energy(q, s) == ising_energy(qubo_to_ising(q), 2s - 1)``.
    """
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    linear = {lab: h * half for lab, h in q.linear.items()}
    quadratic = {}
    offset = sum(q.linear.values(), Fraction(0)) * half
    for (a, b), j in q.quadratic.items():
        quadratic[(a, b)] = j * quarter
        linear[a] = linear.get(a, Fraction(0)) + j * quarter
        linear[b] = linear.get(b, Fraction(0)) + j * quarter
        offset += j * quarter
    return IsingModel(q.labels, linear, quadratic, offset)


def ising_to_qubo(m: IsingModel) -> tuple[QuboModel, Fraction]:
    """Inverse rewrite via sigma_i = 2 s_i - 1.

    Returns the QUBO together with the constant term the substitution
    leaves over (zero for any model produced by :func:`qubo_to_ising`).
    """
    linear = {lab: 2 * h for lab, h in m.linear.items()}
    quadratic = {}
    constant = m.offset - sum(m.linear.values(), Fraction(0))
    for (a, b), j in m.quadratic.items():
        quadratic[(a, b)] = 4 * j
        linear[a] = linear.get(a, Fraction(0)) - 2 * j
        linear[b] = linear.get(b, Fraction(0)) - 2 * j
        constant += j
    return QuboModel(m.labels, linear, quadratic), constant


def _compile(model: QuboModel) -> tuple[int, tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """The model as integers over one common denominator.

    Returns ``(den, h, couplers)``: ``den`` is the least common multiple of
    all coefficient denominators, ``h[k]`` is ``den`` times the bias of the
    variable at position k in label order, and ``couplers`` lists
    ``(i, j, den * J_ij)`` with positions ``i < j``. The energy of an
    assignment is the integer sum of its active terms, divided by ``den``.
    The triple is built once per model and shared by every caller.
    """
    return model._compiled


def _fits_int64(h: Sequence[int], couplers: Sequence[tuple[int, int, int]]) -> bool:
    """Whether every sum of distinct scaled coefficients fits in an int64.

    Any energy, and any difference of two energies, is bounded in magnitude
    by the summed magnitudes of the coefficients, so numpy int64 arithmetic
    on them cannot wrap when that sum is below 2**63.
    """
    return sum(map(abs, h)) + sum(abs(c) for _i, _j, c in couplers) < 2**63


def _scaled_energy_table(model: QuboModel) -> tuple[np.ndarray, int]:
    """Energies of all 2^n assignments as integers, times a common denominator.

    Index v of the returned array is the assignment whose bit k (LSB first)
    gives the value of the variable at position k in label order. The table
    is int64 when no sum can wrap, and exact Python ints (``dtype=object``)
    otherwise; both come from the same lines.

    The table is built by doubling: once it covers variables 0..k-1, its
    upper half for variable k is the lower half plus the field of k, which
    is ``h[k]`` plus every coupler ``(i, k)`` whose bit i is set. Each such
    coupler is one strided add over the blocks of the upper half that have
    bit i set. The work is 2^n entries plus 2^(k-1) per coupler ``(i, k)``,
    in one numpy call per variable and one per coupler.
    """
    den, h, couplers = _compile(model)
    dtype = np.int64 if _fits_int64(h, couplers) else object
    by_high = [[] for _ in h]
    for i, k, c in couplers:
        by_high[k].append((i, c))
    energies = np.zeros(1 << model.n_vars, dtype=dtype)
    for k, row in enumerate(by_high):
        lower, upper = energies[: 1 << k], energies[1 << k : 2 << k]
        np.add(lower, h[k], out=upper)
        for i, c in row:
            upper.reshape(-1, 2 << i)[:, 1 << i :] += c
    return energies, den


@dataclass(frozen=True, eq=False)
class Spectrum:
    """All 2^n assignments of a model, sorted by energy.

    Ties are broken by assignment-as-integer ascending, so the ordering is
    deterministic. Energies are exact rationals (stored internally as
    integers over one common denominator). :func:`exhaustive_solve` builds
    it from one stable sort of the energy table.
    """

    labels: tuple[VarLabel, ...]
    _order: np.ndarray  # assignment integers, sorted
    _scaled: np.ndarray  # scaled integer energies, same order
    _denominator: int

    @property
    def n_vars(self) -> int:
        return len(self.labels)

    @property
    def ground_energy(self) -> Fraction:
        return Fraction(int(self._scaled[0]), self._denominator)

    @property
    def ground_count(self) -> int:
        return int(np.count_nonzero(self._scaled == self._scaled[0]))

    def ground_states(self) -> list[BitVector]:
        """Minimizing assignments, in ascending integer order."""
        n = self.n_vars
        return [BitVector.from_integer(int(v), n) for v in self._order[: self.ground_count]]

    def iter_entries(self) -> Iterator[tuple[BitVector, Fraction]]:
        """(assignment, exact energy) pairs in spectrum order, built lazily."""
        n = self.n_vars
        den = self._denominator
        for v, e in zip(self._order, self._scaled):
            yield BitVector.from_integer(int(v), n), Fraction(int(e), den)

    def __len__(self) -> int:
        return len(self._order)


def exhaustive_solve(model: QuboModel, cap: int = EXHAUSTIVE_CAP) -> Spectrum:
    """Enumerate every assignment and return the full sorted spectrum.

    This is the verification oracle the rest of the package is checked
    against. Refuses models with more than ``cap`` variables.

    The sort key is the energy minus the ground energy, held in the
    smallest unsigned dtype that fits the span (uint8, uint16, uint32 or
    uint64; object only past 2^64). Shifting keeps the order, and numpy
    radix-sorts 8- and 16-bit keys. The sort is stable over a table indexed
    by assignment integer, so equal energies stay in ascending integer
    order: that is the tie-break.
    """
    n = model.n_vars
    if n > cap:
        raise ValueError(
            f"exhaustive enumeration of {n} variables would visit 2^{n} "
            f"assignments; cap is {cap}"
        )
    energies, den = _scaled_energy_table(model)
    lo = energies.min()
    keys = (energies - lo).astype(np.min_scalar_type(energies.max() - lo))
    order = np.argsort(keys, kind="stable")
    return Spectrum(model.labels, order.astype(np.uint64), energies[order], den)
