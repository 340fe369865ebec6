"""Model layer: bit vectors, labels, exact energies, conversions, spectra."""

import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hiddenstring
from hiddenstring.model import (
    EXHAUSTIVE_CAP,
    BitVector,
    IsingModel,
    QuboModel,
    VarKind,
    VarLabel,
    exhaustive_solve,
    ising_energy,
    ising_to_qubo,
    qubo_energy,
    qubo_to_ising,
)


def naive_qubo_energy(model, bits):
    """Reference evaluation by direct summation, independent of the library."""
    pos = {lab: k for k, lab in enumerate(model.labels)}
    e = Fraction(0)
    for lab, h in model.linear.items():
        e += h * bits[pos[lab]]
    for (a, b), j in model.quadratic.items():
        e += j * bits[pos[a]] * bits[pos[b]]
    return e


def naive_ising_energy(model, spins):
    pos = {lab: k for k, lab in enumerate(model.labels)}
    e = model.offset
    for lab, h in model.linear.items():
        e += h * spins[pos[lab]]
    for (a, b), j in model.quadratic.items():
        e += j * spins[pos[a]] * spins[pos[b]]
    return e


def random_integer_model(rng, n, lo=-5, hi=5):
    labels = tuple(VarLabel.plain(i) for i in range(n))
    linear = {lab: int(rng.integers(lo, hi + 1)) for lab in labels}
    quadratic = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                quadratic[(labels[i], labels[j])] = int(rng.integers(lo, hi + 1))
    return QuboModel(labels, linear, quadratic)


def random_tenths_model(rng, n):
    """Dense random model with coefficients k/10, |k| <= 20."""
    labels = tuple(VarLabel.plain(i) for i in range(n))
    linear = {lab: Fraction(int(rng.integers(-20, 21)), 10) for lab in labels}
    quadratic = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                quadratic[(labels[i], labels[j])] = Fraction(int(rng.integers(-20, 21)), 10)
    return QuboModel(labels, linear, quadratic)


class TestBitVector:
    def test_roundtrip_integer(self):
        for n in (1, 3, 8):
            for v in range(1 << n):
                bv = BitVector.from_integer(v, n)
                assert bv.to_integer() == v
                assert len(bv) == n
                assert BitVector(bv.bits) == bv

    def test_lsb_first_indexing(self):
        bv = BitVector.from_integer(0b1010, 4)
        assert bv.bits == (0, 1, 0, 1)
        assert bv[0] == 0 and bv[1] == 1
        assert bv[:2] == (0, 1)

    def test_xor_and_popcount(self):
        a = BitVector.from_integer(0b1100, 4)
        b = BitVector.from_integer(0b1010, 4)
        assert (a ^ b).to_integer() == 0b0110
        assert a.popcount() == 2
        with pytest.raises(TypeError):
            a ^ 3

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            BitVector.from_integer(1, 2) ^ BitVector.from_integer(1, 3)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitVector([0, 2, 1])
        with pytest.raises(ValueError):
            BitVector.from_integer(8, 3)
        with pytest.raises(ValueError):
            BitVector.from_integer(-1, 3)

    def test_hashable(self):
        assert len({BitVector([0, 1]), BitVector([0, 1]), BitVector([1, 0])}) == 2


@st.composite
def bit_vectors(draw, max_bits=40):
    """(value, n) with value < 2**n, biased toward the edges of the range."""
    n = draw(st.integers(0, max_bits))
    value = draw(st.one_of(
        st.integers(0, (1 << n) - 1),
        st.sampled_from(sorted({0, (1 << n) - 1, (1 << n) >> 1})),
    ))
    return value, n


def reference_bits(value, n):
    """Plain tuple of the LSB-first bits, independent of BitVector."""
    return tuple(int(c) for c in reversed(format(value, "b").zfill(n))) if n else ()


BITVECTOR_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


class TestBitVectorAgainstTuple:
    """The integer-backed BitVector behaves as the tuple of its bits."""

    @BITVECTOR_SETTINGS
    @given(bit_vectors(), st.integers(-45, 45), st.slices(45))
    def test_bits_length_and_indexing(self, vn, k, sl):
        value, n = vn
        ref = reference_bits(value, n)
        bv = BitVector.from_integer(value, n)
        assert bv.bits == ref
        assert len(bv) == n
        assert int(bv.to_integer()) == value
        assert bv[sl] == ref[sl]
        if -n <= k < n:
            assert bv[k] == ref[k]
        else:
            with pytest.raises(IndexError):
                bv[k]

    @BITVECTOR_SETTINGS
    @given(bit_vectors(), bit_vectors())
    def test_iteration_equality_and_hash(self, vn, other):
        bv, ob = BitVector.from_integer(*vn), BitVector.from_integer(*other)
        ref, oref = reference_bits(*vn), reference_bits(*other)
        assert tuple(iter(bv)) == ref
        assert list(bv) == list(ref)
        assert (bv == ob) == (ref == oref)
        assert (bv != ob) == (ref != oref)
        assert bv == BitVector(ref)
        assert hash(bv) == hash(BitVector(ref))
        assert bv != ref  # a BitVector never equals a plain tuple

    @BITVECTOR_SETTINGS
    @given(bit_vectors(), bit_vectors())
    def test_xor_and_repr(self, vn, other):
        value, n = vn
        bv = BitVector.from_integer(value, n)
        ref = reference_bits(value, n)
        assert repr(bv) == f"BitVector({''.join(map(str, reversed(ref)))}={value}, n={n})"
        ob = BitVector.from_integer(*other)
        if other[1] == n:
            x = bv ^ ob
            assert x.bits == tuple(a ^ b for a, b in zip(ref, reference_bits(*other)))
            assert x.to_integer() == value ^ other[0]
        else:
            with pytest.raises(ValueError, match="length mismatch"):
                bv ^ ob

    @BITVECTOR_SETTINGS
    @given(st.integers(0, 40), st.integers(1, 1 << 50))
    def test_from_integer_rejects_out_of_range(self, n, excess):
        with pytest.raises(ValueError, match="non-negative"):
            BitVector.from_integer(-excess, n)
        with pytest.raises(ValueError, match="does not fit"):
            BitVector.from_integer((1 << n) - 1 + excess, n)


class TestVarLabel:
    @pytest.mark.parametrize(
        "label,text",
        [
            (VarLabel.w(1), "w1"),
            (VarLabel.y(12), "y12"),
            (VarLabel.gw(), "gw"),
            (VarLabel.gy(), "gy"),
            (VarLabel.plain(0), "x0"),
        ],
    )
    def test_str_and_parse_roundtrip(self, label, text):
        assert str(label) == text
        assert VarLabel.parse(text) == label

    def test_parse_rejects_garbage(self):
        for bad in ("w", "z3", "gw1", "w-1", ""):
            with pytest.raises(ValueError):
                VarLabel.parse(bad)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="non-negative"):
            VarLabel.w(-1)

    def test_gw_carries_no_index(self):
        with pytest.raises(ValueError):
            VarLabel(VarKind.GW, 1)

    def test_kind_must_be_a_var_kind(self):
        with pytest.raises(TypeError, match="VarKind"):
            VarLabel("w", 1)

    def test_fields_are_kind_and_index(self):
        # The cached hash is not a field: equality, repr and asdict ignore it.
        assert tuple(f.name for f in dataclasses.fields(VarLabel)) == ("kind", "index")
        assert repr(VarLabel.w(3)) == "VarLabel(kind=<VarKind.W: 'w'>, index=3)"

    def test_label_pickled_under_another_hash_seed_is_found_as_a_key(self):
        # String hashes are salted per process, and a pickled label keeps
        # the hash it was built with, so the hash must not depend on strings.
        labels = [VarLabel.w(3), VarLabel.y(0), VarLabel.gw(), VarLabel.gy(), VarLabel.plain(7)]
        script = (
            "import pickle, sys\n"
            "from hiddenstring.model import VarLabel\n"
            "labels = [VarLabel.w(3), VarLabel.y(0), VarLabel.gw(), VarLabel.gy(),"
            " VarLabel.plain(7)]\n"
            "sys.stdout.buffer.write(pickle.dumps(labels))\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        package_root = str(Path(hiddenstring.__file__).parents[1])
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                            os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             check=True, timeout=60).stdout
        unpickled = pickle.loads(out)
        assert unpickled == labels
        fresh = {lab: k for k, lab in enumerate(labels)}
        for k, lab in enumerate(unpickled):
            assert fresh[lab] == k
            assert {lab: k}[labels[k]] == k


class TestModelConstruction:
    def test_rejects_duplicate_labels(self):
        lab = VarLabel.plain(0)
        with pytest.raises(ValueError):
            QuboModel((lab, lab))

    def test_rejects_unknown_label_terms(self):
        lab = VarLabel.plain(0)
        other = VarLabel.plain(1)
        with pytest.raises(ValueError):
            QuboModel((lab,), {other: 1})
        with pytest.raises(ValueError):
            QuboModel((lab,), {}, {(lab, other): 1})

    def test_rejects_self_coupling(self):
        lab = VarLabel.plain(0)
        with pytest.raises(ValueError):
            QuboModel((lab,), {}, {(lab, lab): 1})

    def test_rejects_duplicate_pair_after_reordering(self):
        a, b = VarLabel.plain(0), VarLabel.plain(1)
        with pytest.raises(ValueError):
            QuboModel((a, b), {}, {(a, b): 1, (b, a): 2})

    def test_quadratic_keys_stored_in_label_order(self):
        a, b = VarLabel.plain(0), VarLabel.plain(1)
        m = QuboModel((a, b), {}, {(b, a): 3})
        assert m.quadratic == {(a, b): Fraction(3)}
        assert m.quadratic_coefficient(b, a) == 3

    def test_zero_coefficients_dropped(self):
        a, b = VarLabel.plain(0), VarLabel.plain(1)
        m = QuboModel((a, b), {a: 0, b: 2}, {(a, b): 0})
        assert m.linear == {b: Fraction(2)}
        assert m.quadratic == {}

    def test_rejects_float_coefficients(self):
        lab = VarLabel.plain(0)
        with pytest.raises(TypeError):
            QuboModel((lab,), {lab: 0.5})
        # exact spellings of the same value are fine
        m = QuboModel((lab,), {lab: Fraction(1, 2)})
        assert m.linear[lab] == QuboModel((lab,), {lab: "1/2"}).linear[lab]

    def test_addition_merges_coefficients(self):
        a, b, c = (VarLabel.plain(i) for i in range(3))
        left = QuboModel((a, b), {a: 1}, {(a, b): 2})
        right = QuboModel((b, c), {b: 3}, {(b, c): 4})
        total = left + right
        assert total.labels == (a, b, c)
        assert total.linear == {a: 1, b: 3}
        assert total.quadratic == {(a, b): 2, (b, c): 4}
        cancel = left + QuboModel((a,), {a: -1})
        assert a not in cancel.linear
        with pytest.raises(TypeError):
            left + 3

    @pytest.mark.parametrize("left_coupler, coupler", [(0, 4), (-1, 3)])
    def test_addition_orders_a_pair_by_the_left_labels(self, left_coupler, coupler):
        a, b = VarLabel.plain(0), VarLabel.plain(1)
        left = QuboModel((b, a), {b: 1, a: -3}, {(b, a): left_coupler})
        right = QuboModel((a, b), {a: 2}, {(a, b): 4})
        total = left + right
        assert total.labels == (b, a)
        assert total.quadratic == {(b, a): coupler}
        for bits in itertools.product((0, 1), repeat=2):
            value = dict(zip(total.labels, bits))
            assert qubo_energy(total, bits) == (
                qubo_energy(left, [value[lab] for lab in left.labels])
                + qubo_energy(right, [value[lab] for lab in right.labels])
            )


class TestEnergies:
    def test_hand_example(self):
        a, b = VarLabel.plain(0), VarLabel.plain(1)
        m = QuboModel((a, b), {a: -1, b: 3}, {(a, b): -2})
        values = {
            (0, 0): 0,
            (1, 0): -1,
            (0, 1): 3,
            (1, 1): 0,
        }
        for bits, expected in values.items():
            assert qubo_energy(m, bits) == expected
            assert naive_qubo_energy(m, bits) == expected

    def test_matches_naive_on_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            m = random_integer_model(rng, n)
            for bits in itertools.product((0, 1), repeat=n):
                assert qubo_energy(m, bits) == naive_qubo_energy(m, bits)

    def test_rejects_bad_assignments(self):
        lab = VarLabel.plain(0)
        m = QuboModel((lab,), {lab: 1})
        with pytest.raises(ValueError):
            qubo_energy(m, [0, 1])
        with pytest.raises(ValueError):
            qubo_energy(m, [2])
        im = qubo_to_ising(m)
        with pytest.raises(ValueError):
            ising_energy(im, [0])

    def test_ising_offset_included(self):
        lab = VarLabel.plain(0)
        m = IsingModel((lab,), {lab: 2}, {}, offset=5)
        assert ising_energy(m, [1]) == 7
        assert ising_energy(m, [-1]) == 3


class TestConversions:
    def test_energy_equivalence_exhaustive(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            q = random_integer_model(rng, n)
            m = qubo_to_ising(q)
            for bits in itertools.product((0, 1), repeat=n):
                spins = [2 * b - 1 for b in bits]
                assert qubo_energy(q, bits) == naive_ising_energy(m, spins)
                assert ising_energy(m, spins) == naive_ising_energy(m, spins)

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            q = random_integer_model(rng, int(rng.integers(1, 8)))
            back, constant = ising_to_qubo(qubo_to_ising(q))
            assert constant == 0
            assert back.labels == q.labels
            assert back.linear == q.linear
            assert back.quadratic == q.quadratic

    def test_ising_to_qubo_constant(self):
        # E = sigma_0 has QUBO form 2 s_0 - 1: the constant carries the -1.
        lab = VarLabel.plain(0)
        q, constant = ising_to_qubo(IsingModel((lab,), {lab: 1}))
        assert q.linear == {lab: 2}
        assert constant == -1
        for bits in ((0,), (1,)):
            spins = [2 * b - 1 for b in bits]
            assert qubo_energy(q, bits) + constant == ising_energy(
                IsingModel((lab,), {lab: 1}), spins
            )

    def test_conversion_creates_only_dyadic_denominators(self):
        rng = np.random.default_rng(31)
        q = random_integer_model(rng, 6)
        m = qubo_to_ising(q)
        for c in [*m.linear.values(), *m.quadratic.values(), m.offset]:
            assert c.denominator in (1, 2, 4)


class TestSpectrum:
    def test_orders_by_energy_then_assignment(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            m = random_integer_model(rng, n)
            spectrum = exhaustive_solve(m)
            entries = list(spectrum.iter_entries())
            assert len(entries) == 1 << n
            energies = [e for _, e in entries]
            assert energies == sorted(energies)
            for (s1, e1), (s2, e2) in zip(entries, entries[1:]):
                if e1 == e2:
                    assert s1.to_integer() < s2.to_integer()

    def test_ground_matches_naive_minimum(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            m = random_integer_model(rng, n)
            spectrum = exhaustive_solve(m)
            table = {
                bits: naive_qubo_energy(m, bits)
                for bits in itertools.product((0, 1), repeat=n)
            }
            minimum = min(table.values())
            assert spectrum.ground_energy == minimum
            expected = {bits for bits, e in table.items() if e == minimum}
            assert {g.bits for g in spectrum.ground_states()} == expected
            assert spectrum.ground_count == len(expected)

    def test_flat_model_is_fully_degenerate(self):
        labels = tuple(VarLabel.plain(i) for i in range(3))
        spectrum = exhaustive_solve(QuboModel(labels))
        assert spectrum.ground_energy == 0
        assert spectrum.ground_count == 8
        assert [g.to_integer() for g in spectrum.ground_states()] == list(range(8))

    def test_fractional_energies_stay_exact(self):
        a, b = VarLabel.plain(0), VarLabel.plain(1)
        m = QuboModel((a, b), {a: "1/2", b: "-3/4"}, {(a, b): "1/4"})
        spectrum = exhaustive_solve(m)
        assert spectrum.ground_energy == Fraction(-3, 4)
        by_state = {s.bits: e for s, e in spectrum.iter_entries()}
        assert by_state[(1, 1)] == Fraction(0)

    def test_refuses_oversized_models(self):
        labels = tuple(VarLabel.plain(i) for i in range(EXHAUSTIVE_CAP + 1))
        with pytest.raises(ValueError):
            exhaustive_solve(QuboModel(labels))
        assert exhaustive_solve(QuboModel(labels[:3]), cap=3) is not None
        with pytest.raises(ValueError):
            exhaustive_solve(QuboModel(labels[:5]), cap=4)
