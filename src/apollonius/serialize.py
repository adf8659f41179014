"""Text output helpers: fixed 17-significant-digit number formatting.

Every float that reaches a CSV, JSON or SVG byte stream is printed as
%.17g, so outputs are round-trip safe and byte-identical across runs.
Single numbers (JSON, the SVG header) go through fmt17, which is
CPython's own formatting. Curve columns (CSV rows, SVG polylines) go
through _fmt17.fmt17_rows, a numpy kernel whose bytes equal "%.17g" for
every double: it prints the digits itself wherever its double-double
arithmetic decides them, and hands the rest (possible ties, magnitudes
outside 1e-99 ... 1e100, zeros, non-finite values) to "%.17g".
"""

from __future__ import annotations

import math

__all__ = ["fmt17", "render_json"]


def fmt17(x) -> str:
    """Decimal form of a number with 17 significant digits.

    Integers (including integral floats) print without an exponent or
    trailing zeros; %.17g is round-trip exact for IEEE doubles.
    """
    if isinstance(x, bool):
        raise TypeError("fmt17 does not format booleans")
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


def _render(value, pieces: list[str]) -> None:
    if value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, str):
        pieces.append('"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(value, (int, float)):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"JSON has no form for the non-finite float {value!r}")
        pieces.append(fmt17(value))
    elif isinstance(value, dict):
        pieces.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                pieces.append(", ")
            _render(str(k), pieces)
            pieces.append(": ")
            _render(v, pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for i, v in enumerate(value):
            if i:
                pieces.append(", ")
            _render(v, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(value) -> str:
    """JSON text with floats at 17 significant digits, keys in insertion order.

    Raises ValueError on a nan or infinite float, which JSON cannot hold.
    """
    pieces: list[str] = []
    _render(value, pieces)
    return "".join(pieces) + "\n"
