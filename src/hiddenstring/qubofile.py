"""Model serialization: the ``.qubo`` coefficient-list format and JSON dicts.

The text format is one header plus one line per nonzero coefficient::

    p qubo 0 <n_vars> <n_diagonal> <n_offdiagonal>
    i i h_i     (diagonal entries, ascending i)
    i j J_ij    (off-diagonal entries, i < j, ascending (i, j))

Indices are 0-based variable positions in the model's label order. Values
are written as plain integers when integral and with six decimal places
otherwise; a dyadic value such as 1/2 therefore survives a round trip
exactly. Lines whose first token is ``c`` are accepted as comments on
import; export never writes them, so export(import(text)) == text for any
text this module produced.

Both readers, :func:`import_qubo` and the string coefficients of
:func:`model_from_dict`, take a value in any form ``Fraction(text)``
reads: an integer, a decimal such as ``-1.25``, a ratio such as ``3/4``,
or a decimal with an exponent such as ``2.5e-3``, each with an optional
sign. A plain decimal is read with ints, and every value is exact. An
exponent whose magnitude is above 4300 (the interpreter's default limit
on the digits of an int read from text) is refused, as building its power
of ten could take minutes; so are a zero denominator and text that is not
a number. A model dict also takes a JSON integer, and refuses a JSON
float as every :class:`QuboModel` does.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .model import QuboModel, VarLabel, _parse_coefficient

__all__ = [
    "QuboFormatError",
    "export_qubo",
    "import_qubo",
    "model_to_dict",
    "model_from_dict",
]


class QuboFormatError(ValueError):
    """Raised when a document does not parse as the coefficient-list format."""


def _format_value(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    whole, frac = divmod(round(abs(c) * 10**6), 10**6)
    return f"{'-' if c < 0 else ''}{whole}.{frac:06d}"


def export_qubo(model: QuboModel) -> str:
    """Render a model as a ``.qubo`` document; writing it is the caller's job.

    Values whose denominator does not divide 10^6 (e.g. 1/3) are rounded to
    six decimals, from the exact value and half to even, never through a
    float; everything this package builds is exact under the format.
    """
    pos = {lab: k for k, lab in enumerate(model.labels)}
    diagonal = sorted((pos[lab], c) for lab, c in model.linear.items())
    off = sorted((pos[a], pos[b], c) for (a, b), c in model.quadratic.items())
    lines = [f"p qubo 0 {model.n_vars} {len(diagonal)} {len(off)}"]
    lines.extend(f"{i} {i} {_format_value(c)}" for i, c in diagonal)
    lines.extend(f"{i} {j} {_format_value(c)}" for i, j, c in off)
    return "\n".join(lines) + "\n"


def _read_source(source: str | Path) -> str:
    if isinstance(source, Path):
        return source.read_text(encoding="ascii")
    if isinstance(source, str):
        # A document always contains a newline or starts with its header;
        # anything else is taken to be a path.
        if source.startswith("p qubo") or "\n" in source:
            return source
        return Path(source).read_text(encoding="ascii")
    raise TypeError(f"expected text or path, got {type(source).__name__}")


def import_qubo(source: str | Path) -> QuboModel:
    """Parse a ``.qubo`` document (text or path) into a model.

    Variables become plain labels x0..x{n-1}. Raises
    :class:`QuboFormatError` with a line number on malformed input.
    """
    text = _read_source(source)
    header: tuple[int, int, int] | None = None
    linear: dict[int, Fraction] = {}
    quadratic: dict[tuple[int, int], Fraction] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if header is None:
            if parts[0] != "p" or len(parts) != 6 or parts[1] != "qubo":
                raise QuboFormatError(
                    f"line {lineno}: expected header 'p qubo 0 <vars> <diag> <offdiag>', "
                    f"got {raw!r}"
                )
            try:
                _target, n_vars, n_diag, n_off = (int(p) for p in parts[2:])
            except ValueError:
                raise QuboFormatError(f"line {lineno}: non-integer header field in {raw!r}")
            if n_vars < 0 or n_diag < 0 or n_off < 0:
                raise QuboFormatError(f"line {lineno}: negative count in header {raw!r}")
            header = (n_vars, n_diag, n_off)
            continue
        if len(parts) != 3:
            raise QuboFormatError(f"line {lineno}: expected 'i j value', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise QuboFormatError(f"line {lineno}: non-integer index in {raw!r}")
        try:
            value = _parse_coefficient(parts[2])
        except ValueError as exc:
            raise QuboFormatError(f"line {lineno}: unreadable value: {exc}") from None
        n_vars = header[0]
        if not (0 <= i < n_vars and 0 <= j < n_vars):
            raise QuboFormatError(
                f"line {lineno}: index out of range for {n_vars} variables"
            )
        if i == j:
            if i in linear:
                raise QuboFormatError(f"line {lineno}: duplicate diagonal entry for {i}")
            linear[i] = value
        elif i < j:
            if (i, j) in quadratic:
                raise QuboFormatError(
                    f"line {lineno}: duplicate off-diagonal entry for ({i}, {j})"
                )
            quadratic[(i, j)] = value
        else:
            raise QuboFormatError(f"line {lineno}: off-diagonal entries need i < j")

    if header is None:
        raise QuboFormatError("missing 'p qubo' header line")
    n_vars, n_diag, n_off = header
    if len(linear) != n_diag:
        raise QuboFormatError(
            f"header declares {n_diag} diagonal entries, found {len(linear)}"
        )
    if len(quadratic) != n_off:
        raise QuboFormatError(
            f"header declares {n_off} off-diagonal entries, found {len(quadratic)}"
        )
    labels = tuple(VarLabel.plain(k) for k in range(n_vars))
    return QuboModel(
        labels,
        {labels[i]: v for i, v in linear.items()},
        {(labels[i], labels[j]): v for (i, j), v in quadratic.items()},
    )


def model_to_dict(model: QuboModel) -> dict:
    """JSON-ready dict with exact coefficients rendered as Fraction strings."""
    pos = {lab: k for k, lab in enumerate(model.labels)}
    return {
        "kind": "qubo",
        "labels": [str(lab) for lab in model.labels],
        "linear": {
            str(lab): str(model.linear[lab])
            for lab in model.labels
            if lab in model.linear
        },
        "quadratic": [
            [str(a), str(b), str(c)]
            for (a, b), c in sorted(
                model.quadratic.items(), key=lambda kv: (pos[kv[0][0]], pos[kv[0][1]])
            )
        ],
    }


def model_from_dict(data: dict) -> QuboModel:
    """Inverse of :func:`model_to_dict`.

    Raises ValueError on a document that is not an object of kind
    ``"qubo"`` with a ``labels`` list of strings, on a ``linear`` that is not
    an object or a ``quadratic`` that is not a list of three-item lists, on
    an undeclared label, and on a coefficient that
    :class:`QuboModel` refuses: text that is not an exact number, a float
    (a JSON number with a fraction or an exponent), or a value that is not
    a number.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if data.get("kind") != "qubo":
        raise ValueError(f"expected a dict with kind 'qubo', got {data.get('kind')!r}")
    if "labels" not in data:
        raise ValueError("the model has no 'labels'")
    if not isinstance(data["labels"], list):
        raise ValueError(f"'labels' must be a list, got {type(data['labels']).__name__}")
    for text in data["labels"]:
        if not isinstance(text, str):
            raise ValueError(f"'labels' must be a list of strings, got the label {text!r}")
    labels = tuple(VarLabel.parse(text) for text in data["labels"])
    by_name = {str(lab): lab for lab in labels}

    def lookup(name: str) -> VarLabel:
        try:
            return by_name[name]
        except (KeyError, TypeError):  # TypeError: a list or object is no label
            raise ValueError(f"coefficient on undeclared label {name!r}") from None

    linear, quadratic = data.get("linear", {}), data.get("quadratic", [])
    if not isinstance(linear, dict):
        raise ValueError(f"'linear' must be an object, got {type(linear).__name__}")
    if not isinstance(quadratic, list):
        raise ValueError(f"'quadratic' must be a list, got {type(quadratic).__name__}")
    for entry in quadratic:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"'quadratic' must be a list of three-item lists, got {entry!r}")
    linear = {lookup(k): v for k, v in linear.items()}
    quadratic = {(lookup(a), lookup(b)): v for a, b, v in quadratic}
    try:
        return QuboModel(labels, linear, quadratic)
    except TypeError as exc:  # a float, bool, null, list or object coefficient
        raise ValueError(f"bad coefficient: {exc}") from None
