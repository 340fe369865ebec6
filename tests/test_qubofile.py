"""Serialization: the .qubo text format and the JSON model dict."""

import json
from fractions import Fraction

import numpy as np
import pytest

from hiddenstring.builders import build_bv_qubo_from_bits, build_simon_literal_qubo
from hiddenstring.model import BitVector, QuboModel, VarLabel
from hiddenstring.qubofile import (
    QuboFormatError,
    export_qubo,
    import_qubo,
    model_from_dict,
    model_to_dict,
)

from test_model import random_integer_model


class TestExport:
    def test_bv_document(self):
        model = build_bv_qubo_from_bits(BitVector.from_integer(0b1010, 4))
        assert export_qubo(model) == (
            "p qubo 0 4 4 0\n"
            "0 0 1\n"
            "1 1 -1\n"
            "2 2 1\n"
            "3 3 -1\n"
        )

    def test_literal_document(self):
        assert export_qubo(build_simon_literal_qubo(3, 1)) == (
            "p qubo 0 8 4 1\n"
            "0 0 -1\n"
            "3 3 3\n"
            "6 6 1\n"
            "7 7 -1\n"
            "0 3 -2\n"
        )

    def test_empty_model(self):
        assert export_qubo(QuboModel(())) == "p qubo 0 0 0 0\n"

    def test_fractional_values_use_six_decimals(self):
        a, b = VarLabel.plain(0), VarLabel.plain(1)
        model = QuboModel((a, b), {a: "1/2"}, {(a, b): "-3/4"})
        assert export_qubo(model) == (
            "p qubo 0 2 1 1\n"
            "0 0 0.500000\n"
            "0 1 -0.750000\n"
        )

    def test_decimals_past_float_precision_round_trip(self):
        # Both values lose digits as floats: 123456789012.300003 and
        # 4503599627370496.000000.
        a, b = VarLabel.plain(0), VarLabel.plain(1)
        model = QuboModel((a, b), {a: Fraction(1234567890123, 10)},
                          {(a, b): Fraction(-9007199254740993, 2)})
        text = export_qubo(model)
        assert text == (
            "p qubo 0 2 1 1\n"
            "0 0 123456789012.300000\n"
            "0 1 -4503599627370496.500000\n"
        )
        assert import_qubo(text) == model

    def test_six_decimals_round_half_to_even_from_the_exact_value(self):
        a, b, c = (VarLabel.plain(i) for i in range(3))
        model = QuboModel((a, b, c), {a: Fraction(5, 2 * 10**6), b: Fraction(-1, 3),
                                      c: Fraction(-1, 3 * 10**6)})
        assert export_qubo(model).splitlines()[1:] == [
            "0 0 0.000002", "1 1 -0.333333", "2 2 -0.000000"]


class TestImport:
    def test_round_trip_on_builder_outputs(self):
        models = [build_simon_literal_qubo(n, j) for n in (2, 3, 4) for j in range(1, n + 1)]
        models += [
            build_bv_qubo_from_bits(BitVector.from_integer(v, 4)) for v in range(16)
        ]
        for model in models:
            text = export_qubo(model)
            assert export_qubo(import_qubo(text)) == text

    def test_round_trip_preserves_fractional_values(self):
        a, b = VarLabel.plain(0), VarLabel.plain(1)
        model = QuboModel((a, b), {a: "1/2", b: "-1/4"}, {(a, b): 2})
        back = import_qubo(export_qubo(model))
        assert back.linear[a] == Fraction(1, 2)
        assert back.linear[b] == Fraction(-1, 4)
        assert back.quadratic[(a, b)] == 2

    def test_round_trip_on_random_models(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = random_integer_model(rng, int(rng.integers(1, 9)))
            text = export_qubo(model)
            assert export_qubo(import_qubo(text)) == text

    def test_import_uses_plain_labels(self):
        model = import_qubo("p qubo 0 2 1 0\n1 1 -3\n")
        assert model.labels == (VarLabel.plain(0), VarLabel.plain(1))
        assert model.linear == {VarLabel.plain(1): Fraction(-3)}

    def test_comments_and_blank_lines_tolerated(self):
        text = "c a comment\n\np qubo 0 2 1 1\nc another\n0 0 1\n0 1 -2\n"
        model = import_qubo(text)
        assert model.linear[VarLabel.plain(0)] == 1
        assert model.quadratic[(VarLabel.plain(0), VarLabel.plain(1))] == -2

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "m.qubo"
        path.write_text(export_qubo(build_bv_qubo_from_bits([0, 1])), encoding="ascii")
        model = import_qubo(path)
        assert model.linear[VarLabel.plain(1)] == -1
        # a string holding the path works too
        assert import_qubo(str(path)) == model
        with pytest.raises(TypeError, match="expected text or path, got bytes"):
            import_qubo(path.read_bytes())

    def test_missing_header(self):
        with pytest.raises(QuboFormatError, match="header"):
            import_qubo("0 0 1\n")
        with pytest.raises(QuboFormatError, match="header"):
            import_qubo("c only a comment\n")

    def test_malformed_header(self):
        with pytest.raises(QuboFormatError, match="line 1"):
            import_qubo("p qubo 0 4 0\n")
        with pytest.raises(QuboFormatError, match="line 1"):
            import_qubo("p qubo 0 x 0 0\n")
        with pytest.raises(QuboFormatError, match="line 1: negative count"):
            import_qubo("p qubo 0 2 -1 0\n")

    def test_malformed_entry_reports_line_number(self):
        with pytest.raises(QuboFormatError, match="line 3"):
            import_qubo("p qubo 0 2 2 0\n0 0 1\n1 1\n")
        # A huge exponent is refused before Fraction builds its power of ten.
        for value in ("pi", "1/0", "1e20000000", "-1E-20000000"):
            with pytest.raises(QuboFormatError, match="line 2: unreadable value"):
                import_qubo(f"p qubo 0 2 1 0\n0 0 {value}\n")
        with pytest.raises(QuboFormatError, match="line 2: non-integer index"):
            import_qubo("p qubo 0 2 1 0\nx 0 1\n")

    def test_count_mismatch(self):
        with pytest.raises(QuboFormatError, match="diagonal"):
            import_qubo("p qubo 0 2 2 0\n0 0 1\n")
        with pytest.raises(QuboFormatError, match="off-diagonal"):
            import_qubo("p qubo 0 2 1 1\n0 0 1\n")

    def test_reversed_coupler_rejected(self):
        with pytest.raises(QuboFormatError, match="i < j"):
            import_qubo("p qubo 0 2 0 1\n1 0 -2\n")

    def test_duplicate_entries_rejected(self):
        with pytest.raises(QuboFormatError, match="duplicate"):
            import_qubo("p qubo 0 2 2 0\n0 0 1\n0 0 2\n")
        with pytest.raises(QuboFormatError, match="duplicate"):
            import_qubo("p qubo 0 2 0 2\n0 1 1\n0 1 2\n")

    def test_index_out_of_range(self):
        with pytest.raises(QuboFormatError, match="out of range"):
            import_qubo("p qubo 0 2 1 0\n2 2 1\n")


class TestModelDict:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            model = random_integer_model(rng, int(rng.integers(1, 8)))
            assert model_from_dict(model_to_dict(model)) == model

    def test_round_trip_with_named_labels(self):
        model = build_simon_literal_qubo(3, 2)
        data = model_to_dict(model)
        assert data["kind"] == "qubo"
        assert data["labels"][:4] == ["w1", "w2", "w3", "y1"]
        assert model_from_dict(data) == model

    def test_fractions_survive_as_strings(self):
        lab = VarLabel.plain(0)
        model = QuboModel((lab,), {lab: "1/3"})
        data = model_to_dict(model)
        assert data["linear"]["x0"] == "1/3"
        assert model_from_dict(data).linear[lab] == Fraction(1, 3)

    def test_rejects_wrong_kind(self):
        # Also a document that is not an object, and one without labels.
        for data in ({"kind": "ising", "labels": []}, [1], {"kind": "qubo"}):
            with pytest.raises(ValueError):
                model_from_dict(data)

    def test_rejects_malformed_values(self):
        # json.loads reads 1e400 as float inf; a float is refused, not rounded.
        for value in ("pi", "1/0", "1e20000000", "-1E-20000000", json.loads("1e400"), 0.1,
                      True, False):
            for data in ({"linear": {"x0": value}}, {"quadratic": [["x0", "x1", value]]}):
                with pytest.raises(ValueError):
                    model_from_dict({"kind": "qubo", "labels": ["x0", "x1"], **data})
        # A field of the wrong type died in .items(), or had a string's
        # characters read as labels; a label that is not a string died in the
        # regex, and a quadratic entry that is not three items in unpacking.
        # The error names the field.
        for field, value in (("linear", [1]), ("linear", "x"), ("quadratic", {"x0x1": 1}),
                             ("labels", "x0x1"), ("labels", [1]), ("quadratic", [["x0", "x1"]]),
                             ("quadratic", [5]), ("quadratic", [["x0", "x1", 1, 2]])):
            with pytest.raises(ValueError, match=f"'{field}' must be"):
                model_from_dict({"kind": "qubo", "labels": ["x0", "x1"], field: value})
        # A list as a label is no declared label.
        with pytest.raises(ValueError, match="undeclared label"):
            model_from_dict({"kind": "qubo", "labels": ["x0", "x1"],
                             "quadratic": [[["x0"], "x1", 1]]})

    def test_labels_match_only_their_own_text(self):
        # "x01" once parsed as x1, so the document accepted a coefficient on
        # the undeclared "x1" and refused one on the declared "x01".
        for text in ("x01", "x1"):
            with pytest.raises(ValueError):
                model_from_dict({"kind": "qubo", "labels": ["x01"], "linear": {text: 1}})

    def test_rejects_undeclared_labels(self):
        with pytest.raises(ValueError):
            model_from_dict({"kind": "qubo", "labels": ["x0"], "linear": {"x1": "1"}})
