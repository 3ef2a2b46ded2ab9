"""Deterministic report emission.

Reports must be byte-identical across runs with the same inputs, so JSON is
rendered by hand: keys sorted, floats printed with 17 significant digits
(enough to round-trip IEEE doubles), non-finite values mapped to null, and
exact rationals rendered as "p/q" strings.  Strings and keys are quoted by
json's C encoder ``encode_basestring_ascii``, as ``json.dumps`` quotes them:
'"' and '\\' are backslash-escaped, control characters use the short escapes
or \\u00XX, and every non-ASCII character becomes \\uXXXX (a surrogate pair
beyond the Basic Multilingual Plane).  CSV follows the same float rule with
'.' decimals, ',' separators, and '\\n' line endings.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

__all__ = ["format_float", "dumps", "write_text_atomic", "csv_text"]


def format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return "%.17g" % x


def _render(obj, pad: str, out: list) -> None:
    # dispatch on the exact types a report is made of first; subclasses and
    # numpy values take the isinstance chain in _render_other
    t = type(obj)
    if t is str:
        out.append(_quote(obj))
    elif t is float:
        out.append(format_float(obj))
    elif t is dict:
        _render_dict(obj, pad, out)
    elif t is list or t is tuple:
        _render_list(obj, pad, out)
    elif t is int:
        out.append(str(obj))
    elif t is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    else:
        _render_other(obj, pad, out)


def _render_other(obj, pad: str, out: list) -> None:
    # a numpy value can only exist once numpy is loaded, so the exact path
    # never imports it here
    np = sys.modules.get("numpy")
    if np is None:
        bools, ints, floats, arrays = bool, int, float, (list, tuple)
    else:
        bools, ints, floats = (bool, np.bool_), (int, np.integer), (float, np.floating)
        arrays = (list, tuple, np.ndarray)
    if isinstance(obj, bools):
        out.append("true" if obj else "false")
    elif isinstance(obj, Fraction):
        out.append(_quote(str(obj)))
    elif isinstance(obj, ints):
        out.append(str(int(obj)))
    elif isinstance(obj, floats):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        _render_dict(obj, pad, out)
    elif isinstance(obj, arrays):
        _render_list(list(obj), pad, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_dict(obj: dict, pad: str, out: list) -> None:
    for k in obj:
        if not isinstance(k, str):
            raise TypeError("JSON object keys must be strings")
    if not obj:
        out.append("{}")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    first = len(out)
    for k in sorted(obj):
        out.append(sep)
        out.append(_quote(k))
        out.append(": ")
        _render(obj[k], inner, out)
    out[first] = "{\n" + inner  # the first item opens the object instead of a comma
    out.append("\n" + pad + "}")


def _render_list(items, pad: str, out: list) -> None:
    if not items:
        out.append("[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    first = len(out)
    for item in items:
        out.append(sep)
        _render(item, inner, out)
    out[first] = "[\n" + inner  # likewise for the array
    out.append("\n" + pad + "]")


def dumps(obj) -> str:
    """Canonical JSON text with a trailing newline."""
    out: list = []
    _render(obj, "", out)
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
