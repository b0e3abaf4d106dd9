"""Deterministic text emission: 17-significant-digit floats, fixed key order.

Every float is written with %.17g so that output files are byte-identical
across runs and round-trip exactly through a JSON parse.
"""

import math


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """JSON text with deterministic float formatting, insertion key order, two-space indent."""
    lines: list[str] = []
    _write(obj, lines, 0)
    return "".join(lines) + "\n"


def _write(obj, out: list, level: int) -> None:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f'{pad}"{key}": ')
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(pad)
            _write(value, out, level + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        # numpy scalars and similar
        if hasattr(obj, "item"):
            _write(obj.item(), out, level)
        else:
            raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def write_csv(path, header: list, rows) -> None:
    """CSV of a header line and rows of numbers, each cell written by format_float."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_float(cell) for cell in row) + "\n")
