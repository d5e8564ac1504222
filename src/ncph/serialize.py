"""Serialization of exact values: rationals as "p/q" strings, scalars as
power-basis coordinate arrays, vectors and matrices as nested arrays; and
the one JSON encoding of every file written (sorted keys, indent 1, a
final newline), so equal payloads give equal bytes."""

from __future__ import annotations

import json
from math import gcd

from .fields import Scalar


def to_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


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
