"""Deterministic report emission.

Reports must be byte-identical across runs with the same inputs, so JSON is
rendered by hand: keys sorted, floats printed with 17 significant digits
(enough to round-trip IEEE doubles), non-finite values mapped to null, and
exact rationals rendered as "p/q" strings.  CSV follows the same float rule
with '.' decimals, ',' separators, and '\\n' line endings.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np

__all__ = ["format_float", "dumps", "write_text_atomic", "csv_text"]


def format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return "%.17g" % x


def _render(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, Fraction):
        out.append(json.dumps(str(obj)))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        keys = list(obj.keys())
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("JSON object keys must be strings")
        if not keys:
            out.append("{}")
            return
        out.append("{\n")
        for pos, k in enumerate(sorted(keys)):
            out.append(inner)
            out.append(json.dumps(k))
            out.append(": ")
            _render(obj[k], indent + 1, out)
            out.append(",\n" if pos < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for pos, item in enumerate(items):
            out.append(inner)
            _render(item, indent + 1, out)
            out.append(",\n" if pos < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Canonical JSON text with a trailing newline."""
    out: list = []
    _render(obj, 0, out)
    out.append("\n")
    return "".join(out)


def csv_text(header: list, rows) -> str:
    """CSV of float cells with '.' decimals, ',' separators, '\\n' endings.

    The header is always written; a non-finite cell prints as nan.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([format_float(x) if math.isfinite(x) else "nan" for x in row]))
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so failures leave no partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
