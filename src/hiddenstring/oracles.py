"""Black-box oracles for the two hidden-string problems.

Both oracles seal a hidden bit string ``a`` behind a query interface and
count every query made. Test code may read the hidden string back, but only
through the explicitly named ``reveal_*`` accessors.

The parity oracle computes ``f(w) = (sum_k w_k a_k) mod 2``. The 2-to-1
oracle maps n-bit inputs to (n-1)-bit labels with ``g(w) = g(y)`` exactly
when ``w XOR y`` is 0 or ``a``; since only the collision structure is
promised, the concrete labels are a seeded random bijection from the 2^(n-1)
cosets ``{w, w XOR a}`` onto the (n-1)-bit values.
"""

from __future__ import annotations

import numpy as np

from .model import BitVector

__all__ = [
    "BvOracle",
    "SimonOracle",
    "random_hidden_string",
    "SIMON_TABLE_LIMIT",
    "COLLISION_COUNT_LIMIT",
]

# The 2-to-1 oracle is built as an explicit table with 2^n entries.
SIMON_TABLE_LIMIT = 20
# Collision-pair counting touches every fiber of the table.
COLLISION_COUNT_LIMIT = 16


def random_hidden_string(n: int, rng: np.random.Generator, *, nonzero: bool = False) -> BitVector:
    """Draw a uniform n-bit hidden string (optionally excluding zero).

    Drawn bit by bit so widths beyond the 64-bit integer range work too.
    """
    if n < 1:
        raise ValueError("hidden strings need at least one bit")
    while True:
        bits = rng.integers(0, 2, size=n)
        if not nonzero or bits.any():
            return BitVector(bits)


class BvOracle:
    """Parity oracle: query with w, receive the parity of ``w AND a``."""

    def __init__(self, a: BitVector):
        if not isinstance(a, BitVector):
            a = BitVector(a)
        self._a = a
        self._queries = 0

    @property
    def n(self) -> int:
        return len(self._a)

    @property
    def queries(self) -> int:
        return self._queries

    def query(self, w: BitVector) -> int:
        """Parity of the bitwise AND of w and the hidden string; counts one query."""
        if len(w) != self.n:
            raise ValueError(f"query has {len(w)} bits, oracle expects {self.n}")
        self._queries += 1
        return (w.to_integer() & self._a.to_integer()).bit_count() & 1

    def reveal_hidden_string(self) -> BitVector:
        """Test-only accessor; protocol code must not call this."""
        return self._a


class SimonOracle:
    """2-to-1 oracle with hidden xor mask ``a != 0``.

    Labels are assigned by enumerating the canonical coset representatives
    ``min(w, w XOR a)`` in ascending order and pairing them with a seeded
    random permutation of the (n-1)-bit values, which is a bijection by
    counting. Construction is deterministic for fixed (a, seed).
    """

    def __init__(self, a: BitVector, seed: int = 0):
        if not isinstance(a, BitVector):
            a = BitVector(a)
        n = len(a)
        if not 2 <= n <= SIMON_TABLE_LIMIT:
            raise ValueError(
                f"explicit-table construction supports 2 <= n <= {SIMON_TABLE_LIMIT}, got n={n}"
            )
        if a.to_integer() == 0:
            raise ValueError("the hidden string of a 2-to-1 oracle must be nonzero")
        self._a = a
        self._seed = int(seed)
        self._queries = 0
        self._table = self._build_table(n, a.to_integer(), self._seed)

    @staticmethod
    def _build_table(n: int, a_int: int, seed: int) -> np.ndarray:
        w = np.arange(1 << n, dtype=np.uint64)
        partner = w ^ np.uint64(a_int)
        rep_mask = w < partner  # exactly one representative per coset
        rng = np.random.default_rng(seed)
        labels = rng.permutation(1 << (n - 1)).astype(np.uint32)
        table = np.empty(1 << n, dtype=np.uint32)
        table[w[rep_mask]] = labels
        table[partner[rep_mask]] = labels
        table.flags.writeable = False
        return table

    @property
    def n(self) -> int:
        return len(self._a)

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def queries(self) -> int:
        return self._queries

    def query(self, w: BitVector) -> int:
        """The (n-1)-bit label of w's coset; counts one query."""
        if len(w) != self.n:
            raise ValueError(f"query has {len(w)} bits, oracle expects {self.n}")
        self._queries += 1
        return int(self._table[w.to_integer()])

    def count_collision_pairs(self) -> int:
        """Number of unordered pairs w != y with equal labels, via fiber sizes."""
        if self.n > COLLISION_COUNT_LIMIT:
            raise ValueError(
                f"collision counting supports n <= {COLLISION_COUNT_LIMIT}, got n={self.n}"
            )
        fibers = np.bincount(self._table)
        return int((fibers * (fibers - 1) // 2).sum())

    def reveal_hidden_string(self) -> BitVector:
        """Test-only accessor; protocol code must not call this."""
        return self._a

    def reveal_label_table(self) -> np.ndarray:
        """Test-only accessor: the full label table, without counting queries."""
        return self._table.copy()
