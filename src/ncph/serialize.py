"""Serialization of exact values: rationals as "p/q" strings, scalars as
power-basis coordinate arrays, vectors and matrices as nested arrays; and
the one JSON encoding of every file written, so equal payloads give equal
bytes.

The encoding is exactly ``json.dumps(payload, sort_keys=True, indent=1)``
plus a final newline: sorted keys, one space of indent per level, ASCII
escapes.  ``iter_json`` yields it in pieces, each a whole item of a
top-level list or smaller, and ``write_json`` streams them into a file.
A flat list of strings or of ints is joined in one step, its elements
escaped or printed in C; such a list that the payload holds in several
places is encoded once per indent depth.  Payloads hold dicts, lists,
tuples, strings, ints, bools and None, and their keys are strings;
anything else raises TypeError.
"""

from __future__ import annotations

import os
from collections import defaultdict
from json.encoder import encode_basestring_ascii as _escape
from math import gcd
from pathlib import Path
from typing import Iterator

from .fields import Scalar

# lists and dicts nearer the top than this depth are written item by
# item; a value at it or deeper (an element, a row, a flat) is one piece,
# so a piece stays small and few generators are stacked
_STREAM_DEPTH = 2


def iter_json(payload) -> Iterator[str]:
    """The pieces of the JSON text of ``payload``, without the final
    newline."""
    # per depth, by id: a flat list met once is only held, so that its id
    # stays its own; met again at that depth, its text is kept for every
    # later use
    held: defaultdict[int, dict[int, object]] = defaultdict(dict)
    texts: defaultdict[int, dict[int, str]] = defaultdict(dict)

    def flat(items, depth: int):
        """The text of a non-empty list of str or of plain ints (not
        bools), joined in one step; None for any other list."""
        if isinstance(items[0], (list, tuple, dict)):
            return None
        known = texts[depth]
        text = known.get(id(items))
        if text is not None:
            return text
        kinds = set(map(type, items))
        if kinds == {str}:
            parts = map(_escape, items)
        elif kinds == {int}:
            parts = map(int.__repr__, items)
        else:
            return None
        inner = "\n" + " " * (depth + 1)
        text = f"[{inner}{(',' + inner).join(parts)}\n{' ' * depth}]"
        seen = held[depth]
        if id(items) in seen:
            known[id(items)] = text
        else:
            seen[id(items)] = items
        return text

    def encode(value, depth: int) -> str:
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            text = flat(value, depth)
            if text is not None:
                return text
            inner = "\n" + " " * (depth + 1)
            deeper = depth + 1
            known = texts[deeper]
            return (f"[{inner}" + f",{inner}".join([
                known.get(id(v)) or encode(v, deeper) for v in value])
                + f"\n{' ' * depth}]")
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = "\n" + " " * (depth + 1)
            return (f"{{{inner}" + f",{inner}".join([
                f"{_key(k)}: {encode(v, depth + 1)}"
                for k, v in sorted(value.items())]) + f"\n{' ' * depth}}}")
        return _atom(value)

    def pieces(value, depth: int) -> Iterator[str]:
        if not (depth < _STREAM_DEPTH
                and isinstance(value, (list, tuple, dict)) and value):
            yield encode(value, depth)
            return
        if isinstance(value, dict):
            items = ((f"{_key(k)}: ", v) for k, v in sorted(value.items()))
            opener, closer = "{", "}"
        else:
            text = flat(value, depth)
            if text is not None:
                yield text
                return
            items = (("", v) for v in value)
            opener, closer = "[", "]"
        yield opener
        inner = "\n" + " " * (depth + 1)
        sep = inner
        for head, v in items:
            if depth + 1 < _STREAM_DEPTH:
                yield sep + head
                yield from pieces(v, depth + 1)
            else:
                yield sep + head + encode(v, depth + 1)
            sep = "," + inner
        yield f"\n{' ' * depth}{closer}"

    return pieces(payload, 0)


def _atom(value) -> str:
    """A string, an int, a bool or None as its JSON text."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def _key(key) -> str:
    if isinstance(key, str):
        return _escape(key)
    raise TypeError(f"keys must be str, not {type(key).__name__}")


def to_json(payload) -> str:
    return "".join(iter_json(payload)) + "\n"


def write_json(path: Path, payload) -> None:
    """Stream the JSON text of ``payload`` into ``path``.  The pieces go to
    a temporary file beside it, which replaces ``path`` only once complete:
    a write that fails leaves neither a partial file nor the temporary."""
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="ascii") as out:
            out.writelines(iter_json(payload))
            out.write("\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def scalar(x: Scalar) -> list[str]:
    """Coordinate num[i] / den in lowest terms (den > 0)."""
    out = []
    for n in x.num:
        g = gcd(n, x.den)
        out.append(f"{n // g}/{x.den // g}")
    return out


def vector(v) -> list[list[str]]:
    return [scalar(x) for x in v]


def matrix(m) -> list[list[list[str]]]:
    return [vector(row) for row in m.rows]
