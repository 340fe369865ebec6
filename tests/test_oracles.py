"""Oracle behavior: parity queries, 2-to-1 collision structure, counters."""

import itertools

import numpy as np
import pytest

from hiddenstring.model import BitVector
from hiddenstring.oracles import (
    COLLISION_COUNT_LIMIT,
    BvOracle,
    SimonOracle,
    random_hidden_string,
)
from hiddenstring.protocol import verify_simon


def brute_force_collision_pairs(table):
    """Count unordered colliding pairs by comparing every pair of inputs."""
    count = 0
    size = len(table)
    for w in range(size):
        for y in range(w + 1, size):
            if table[w] == table[y]:
                count += 1
    return count


class TestBvOracle:
    def test_parity_values(self):
        oracle = BvOracle(BitVector.from_integer(0b1011, 4))
        assert oracle.query(BitVector.from_integer(0b0001, 4)) == 1
        assert oracle.query(BitVector.from_integer(0b0100, 4)) == 0
        assert oracle.query(BitVector.from_integer(0b0011, 4)) == 0
        assert oracle.query(BitVector.from_integer(0b1111, 4)) == 1
        # a plain bit list, LSB first, is the same oracle
        bits = BvOracle([1, 1, 0, 1])
        assert bits.reveal_hidden_string() == oracle.reveal_hidden_string()
        assert bits.query(BitVector.from_integer(0b0011, 4)) == 0

    def test_unit_queries_read_singles_bits(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_hidden_string(8, rng)
            oracle = BvOracle(a)
            for k in range(8):
                assert oracle.query(BitVector.from_integer(1 << k, 8)) == a[k]

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = random_hidden_string(10, rng)
        oracle = BvOracle(a)
        for _ in range(50):
            w = random_hidden_string(10, rng)
            v = random_hidden_string(10, rng)
            assert oracle.query(w ^ v) == (oracle.query(w) + oracle.query(v)) % 2

    def test_counts_queries(self):
        oracle = BvOracle(BitVector.from_integer(3, 2))
        assert oracle.queries == 0
        oracle.query(BitVector.from_integer(1, 2))
        oracle.query(BitVector.from_integer(2, 2))
        assert oracle.queries == 2
        # reading the hidden string back is not a query
        oracle.reveal_hidden_string()
        assert oracle.queries == 2

    def test_rejects_empty_hidden_string(self):
        with pytest.raises(ValueError, match="got n=0"):
            BvOracle(BitVector.from_integer(0, 0))

    def test_rejects_length_mismatch(self):
        oracle = BvOracle(BitVector.from_integer(3, 2))
        with pytest.raises(ValueError):
            oracle.query(BitVector.from_integer(1, 3))


class TestSimonOracle:
    def test_rejects_zero_hidden_string(self):
        with pytest.raises(ValueError):
            SimonOracle(BitVector.from_integer(0, 4))

    def test_rejects_out_of_range_sizes(self):
        with pytest.raises(ValueError):
            SimonOracle(BitVector.from_integer(1, 1))

    def test_labels_fit_in_n_minus_1_bits(self):
        oracle = SimonOracle(BitVector.from_integer(0b101, 3), seed=1)
        labels = {oracle.query(BitVector.from_integer(w, 3)) for w in range(8)}
        assert labels == set(range(4))

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_collision_promise_both_directions(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            a = random_hidden_string(n, rng, nonzero=True)
            oracle = SimonOracle(a, seed=int(rng.integers(1 << 30)))
            table = oracle.reveal_label_table()
            a_int = a.to_integer()
            for w in range(1 << n):
                for y in range(1 << n):
                    collide = table[w] == table[y]
                    assert collide == ((w ^ y) in (0, a_int))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_mask_labels_each_coset_once(self, n):
        # Every nonzero a, so a = 1 and a = 2^(n-1) (top set bit at either
        # end) are both covered: each (n-1)-bit label is hit exactly twice,
        # by some w and w ^ a.
        v = np.arange(1 << n)
        for a in range(1, 1 << n):
            for seed in (0, 1):
                table = SimonOracle(BitVector.from_integer(a, n), seed=seed).reveal_label_table()
                assert (table[v] == table[v ^ a]).all()
                assert (np.bincount(table, minlength=1 << (n - 1)) == 2).all()

    @pytest.mark.parametrize("n", [21, 64, 256])
    def test_wide_oracles_keep_the_promise(self, n):
        rng = np.random.default_rng(n)
        a = random_hidden_string(n, rng, nonzero=True)
        oracle = SimonOracle(a, seed=n)
        for _ in range(200):
            w = random_hidden_string(n, rng)
            d = random_hidden_string(n, rng, nonzero=True)
            label = oracle.query(w)
            assert 0 <= label < 1 << (n - 1)
            assert oracle.query(w ^ a) == label
            assert (oracle.query(w ^ d) == label) == (d == a)
        assert verify_simon(oracle, a, seed=1)
        assert not verify_simon(oracle, a ^ BitVector.from_integer(1, n), seed=1)

    def test_collision_pair_count(self):
        rng = np.random.default_rng(17)
        for n in range(2, 11):
            a = random_hidden_string(n, rng, nonzero=True)
            oracle = SimonOracle(a, seed=7)
            assert oracle.count_collision_pairs() == 1 << (n - 1)

    def test_collision_count_matches_brute_force(self):
        rng = np.random.default_rng(19)
        for n in (2, 3, 4, 5, 6):
            a = random_hidden_string(n, rng, nonzero=True)
            oracle = SimonOracle(a, seed=23)
            table = oracle.reveal_label_table()
            assert oracle.count_collision_pairs() == brute_force_collision_pairs(table)

    def test_collision_count_size_limit(self):
        a = BitVector.from_integer(1, COLLISION_COUNT_LIMIT + 1)
        oracle = SimonOracle(a)
        with pytest.raises(ValueError):
            oracle.count_collision_pairs()

    def test_label_table_size_limit(self):
        oracle = SimonOracle(BitVector.from_integer(1, COLLISION_COUNT_LIMIT + 1))
        with pytest.raises(ValueError, match=f"got n={COLLISION_COUNT_LIMIT + 1}"):
            oracle.reveal_label_table()
        assert oracle.queries == 0

    def test_same_seed_same_labels(self):
        a = BitVector.from_integer(0b0110, 4)
        t1 = SimonOracle(a, seed=5).reveal_label_table()
        t2 = SimonOracle(a, seed=5).reveal_label_table()
        assert (t1 == t2).all()
        # a plain bit list, LSB first, is the same oracle
        assert (SimonOracle([0, 1, 1, 0], seed=5).reveal_label_table() == t1).all()

    def test_different_seeds_differ(self):
        a = BitVector.from_integer(0b0110, 4)
        t1 = SimonOracle(a, seed=5).reveal_label_table()
        t2 = SimonOracle(a, seed=6).reveal_label_table()
        assert (t1 != t2).any()

    def test_counts_queries_but_not_reveals(self):
        oracle = SimonOracle(BitVector.from_integer(0b11, 2), seed=0)
        oracle.reveal_label_table()
        oracle.reveal_hidden_string()
        assert oracle.queries == 0
        oracle.query(BitVector.from_integer(0, 2))
        assert oracle.queries == 1

    def test_rejects_length_mismatch(self):
        oracle = SimonOracle(BitVector.from_integer(0b11, 2))
        with pytest.raises(ValueError):
            oracle.query(BitVector.from_integer(0, 3))


class TestRandomHiddenString:
    def test_length_and_determinism(self):
        a = random_hidden_string(16, np.random.default_rng(1))
        b = random_hidden_string(16, np.random.default_rng(1))
        assert len(a) == 16
        assert a == b

    def test_nonzero_flag(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            assert random_hidden_string(2, rng, nonzero=True).to_integer() != 0

    def test_wide_strings(self):
        a = random_hidden_string(512, np.random.default_rng(3))
        assert len(a) == 512
        # a uniform 512-bit draw is never all zeros or all ones in practice
        assert 0 < a.popcount() < 512

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_hidden_string(0, np.random.default_rng(0))

    @staticmethod
    def bit_by_bit(n, rng, nonzero=False):
        """The string built bit by bit from the same draws."""
        while True:
            bits = rng.integers(0, 2, size=n).tolist()
            if any(bits) or not nonzero:
                return BitVector.from_integer(sum(b << k for k, b in enumerate(bits)), n)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65, 130])
    def test_packs_the_drawn_bits(self, n):
        rng, plain = np.random.default_rng(n), np.random.default_rng(n)
        for nonzero in [False, True] * 10:
            assert random_hidden_string(n, rng, nonzero=nonzero) == self.bit_by_bit(n, plain, nonzero)
        assert rng.random() == plain.random()

    def test_nonzero_redraws_an_all_zero_string(self):
        # Seed 11's first two one-bit draws are both 0.
        first = np.random.default_rng(11)
        assert [first.integers(0, 2, size=1).tolist() for _ in range(2)] == [[0], [0]]
        rng, plain = np.random.default_rng(11), np.random.default_rng(11)
        assert random_hidden_string(1, rng, nonzero=True) == self.bit_by_bit(1, plain, True)
        assert rng.random() == plain.random()
