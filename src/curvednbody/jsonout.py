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
from json.encoder import encode_basestring_ascii as _quote

__all__ = ["format_float", "dumps", "write_text_atomic", "csv_text"]


def format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return "%.17g" % x


def _render(obj, pad: str, out: list) -> None:
    # dispatch on the exact types a report is made of; anything else is
    # first converted to one of them by _plain
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
        _render(_plain(obj), pad, out)


def _plain(obj):
    """obj as a value of an exact type that _render dispatches on.

    A subclass becomes its base type, a Fraction its "p/q" string and an
    array-like (any value with a tolist(), an array('d') among them) its tolist().
    """
    # no Fraction exists before fractions is imported, so a report without one never imports it
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(obj, fractions.Fraction):
        return str(obj)
    if isinstance(obj, str):
        return str.__str__(obj)  # the text itself, whatever __str__ a subclass defines
    for base in (int, float, dict, list, tuple):
        if isinstance(obj, base):
            return base(obj)
    if hasattr(obj, "tolist"):
        return obj.tolist()
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
    size, fmt = 0, ""
    for row in rows:
        row = tuple(row)
        if len(row) != size:
            size, fmt = len(row), ",".join(["%.17g"] * len(row))
        # one format for the whole row; only an inf or nan cell prints an n
        line = fmt % row
        if "n" in line:
            line = ",".join([format_float(x) if math.isfinite(x) else "nan" for x in row])
        lines.append(line)
    return "\n".join(lines) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so failures leave no partial file.

    The sibling is created with mode 0o666 less the umask, as open(path, "w")
    creates a file; O_EXCL refuses a name that already exists.  A file it
    replaces passes on its permission bits, as open(path, "w") keeps them.
    A symlinked path is written through: the link's target is replaced.
    """
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            os.chmod(tmp, os.stat(path).st_mode & 0o777)
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
