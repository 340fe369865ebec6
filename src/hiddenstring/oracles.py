"""Black-box oracles for the two hidden-string problems.

Both oracles seal a hidden bit string ``a`` (an int and its width) behind a
query interface and count every query made; that bookkeeping is one base
class, and each oracle adds its width check and ``query``. The hidden
string is read back only through the explicitly named ``reveal_*``
accessors: by tests, and by reports, which record it unless the run is blind.

The parity oracle computes ``f(w) = (sum_k w_k a_k) mod 2``. The 2-to-1
oracle maps n-bit inputs to (n-1)-bit labels with ``g(w) = g(y)`` exactly
when ``w XOR y`` is 0 or ``a``; since only the collision structure is
promised, the labels are a bijection, seeded by ``_seeded_rng``, from the
2^(n-1) cosets ``{w, w XOR a}`` onto the (n-1)-bit values, computed per
query from ``a`` rather than stored, so memory does not bound the size.
"""

from __future__ import annotations

import numpy as np

from .model import BitVector, _seeded_rng

__all__ = [
    "BvOracle",
    "SimonOracle",
    "random_hidden_string",
    "COLLISION_COUNT_LIMIT",
]

# The test-only label enumerations compute all 2^n labels.
COLLISION_COUNT_LIMIT = 16


def _check_width(n: int) -> None:
    if n < 1:
        raise ValueError(f"hidden strings need at least one bit, got n={n}")


def _check_simon_width(n: int) -> None:
    """The widths a :class:`SimonOracle` can have: its labels need n - 1 >= 1 bits."""
    if n < 2:
        raise ValueError(f"a 2-to-1 oracle needs n >= 2, got n={n}")


def random_hidden_string(n: int, rng: np.random.Generator, *, nonzero: bool = False) -> BitVector:
    """Draw a uniform n-bit hidden string (optionally excluding zero).

    Each try draws the n bits as one ``integers(0, 2, size=n)`` array (bit k
    is entry k) and packs them into the string's int in one numpy step, so
    widths beyond the 64-bit integer range work too. With ``nonzero``, an
    all-zero draw is redrawn.
    """
    _check_width(n)
    while True:
        bits = rng.integers(0, 2, size=n)
        value = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
        if value or not nonzero:
            return BitVector._of(value, n)


class _SealedString:
    """A hidden string, from a BitVector or a bit sequence, kept as its int and width."""

    def __init__(self, a: BitVector):
        if not isinstance(a, BitVector):
            a = BitVector(a)
        self._a = a.to_integer()
        self._n = len(a)
        self._queries = 0

    @property
    def n(self) -> int:
        return self._n

    @property
    def queries(self) -> int:
        return self._queries

    def reveal_hidden_string(self) -> BitVector:
        """The hidden string, without a query: reports read it unless ``blind``,
        and no search, check or verify step does."""
        return BitVector._of(self._a, self._n)


class BvOracle(_SealedString):
    """Parity oracle: query with w, receive the parity of ``w AND a``."""

    def __init__(self, a: BitVector):
        super().__init__(a)
        _check_width(self._n)

    def query(self, w: BitVector) -> int:
        """Parity of the bitwise AND of w and the hidden string; counts one query."""
        if len(w) != self._n:
            raise ValueError(f"query has {len(w)} bits, oracle expects {self._n}")
        self._queries += 1
        return (w.to_integer() & self._a).bit_count() & 1


class SimonOracle(_SealedString):
    """2-to-1 oracle with hidden xor mask ``a != 0``.

    A label is computed per query, in constant time and memory at any n.
    The smaller member of ``{w, w XOR a}`` has a 0 at the top set bit of
    ``a``; dropping that bit gives the coset's (n-1)-bit index, and the
    bijection ``((index XOR c) * odd) mod 2^(n-1)``, with ``c`` and the odd
    ``odd`` drawn from ``_seeded_rng(seed)``, maps it to the label.
    """

    def __init__(self, a: BitVector, seed: int = 0):
        super().__init__(a)
        _check_simon_width(self._n)
        if self._a == 0:
            raise ValueError("the hidden string of a 2-to-1 oracle must be nonzero, got a=0")
        self._t = self._a.bit_length() - 1
        self._mask = (1 << (self._n - 1)) - 1
        rng = _seeded_rng(int(seed))
        self._c, odd = (int.from_bytes(rng.bytes(self._n), "little") & self._mask
                        for _ in range(2))
        self._odd = odd | 1

    def _label(self, v: int) -> int:
        r = v if v < v ^ self._a else v ^ self._a
        index = r - (r >> (self._t + 1) << self._t)
        return ((index ^ self._c) * self._odd) & self._mask

    def query(self, w: BitVector) -> int:
        """The (n-1)-bit label of w's coset; counts one query.

        Every label a solve reads comes through here: the benchmark's tracer
        wraps this method to count queries by purpose and checks that the
        counts add up to the oracle's own, so no solve may compute a label
        without it.
        """
        if len(w) != self._n:
            raise ValueError(f"query has {len(w)} bits, oracle expects {self._n}")
        self._queries += 1
        return self._label(w.to_integer())

    def count_collision_pairs(self) -> int:
        """Number of unordered pairs w != y with equal labels, via fiber sizes."""
        fibers = np.bincount(self.reveal_label_table())
        return int((fibers * (fibers - 1) // 2).sum())

    def reveal_label_table(self) -> np.ndarray:
        """Test-only accessor: every input's label, without counting queries."""
        if self._n > COLLISION_COUNT_LIMIT:
            raise ValueError(
                f"label enumeration supports n <= {COLLISION_COUNT_LIMIT}, got n={self._n}"
            )
        size = 1 << self._n
        return np.fromiter(map(self._label, range(size)), dtype=np.uint32, count=size)
