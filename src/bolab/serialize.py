"""Deterministic text emission: 17-significant-digit floats, fixed key order.

Every float is written with %.17g so that output files are byte-identical
across runs and round-trip exactly through a JSON parse. Every other value is
spelled by the standard library's ``json``: ASCII-only, with RFC 8259 escapes.
"""

import json
import math


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """JSON text with deterministic float formatting, insertion key order, two-space indent."""
    return _encode(obj, "") + "\n"


def _encode(obj, pad: str) -> str:
    if hasattr(obj, "item"):  # numpy scalars
        obj = obj.item()
    if isinstance(obj, float):
        return format_float(obj)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{json.dumps(str(key))}: {_encode(value, inner)}" for key, value in obj.items())
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) and obj:
        items = (_encode(value, inner) for value in obj)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    return json.dumps(obj)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def write_csv(path, header: list, rows) -> None:
    """CSV of a header line and rows of numbers, each cell written by format_float."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_float(cell) for cell in row) + "\n")
