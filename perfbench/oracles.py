"""Closed-form oracles for the groups the benchmark runs.

Every value is derived from the degrees d_1..d_n of the group alone
(Armstrong, arXiv math/0611106; Humphreys, Table 3.1), so a faster code
path cannot pass a run just by agreeing with the code it replaced.  Values
are counts and invariants, never bytes, so a later change of
representation stays comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

DEGREES = {
    "A3": (2, 3, 4),
    "B3": (2, 4, 6),
    "H3": (2, 6, 10),
    "A4": (2, 3, 4, 5),
    "D4": (2, 4, 4, 6),
    "B4": (2, 4, 6, 8),
    "F4": (2, 6, 8, 12),
    "H4": (2, 12, 20, 30),
}


@dataclass(frozen=True)
class Oracle:
    rank: int
    order: int          # |W| = prod d_i
    h: int              # Coxeter number, max d_i
    reflections: int    # |T| = n h / 2
    ncp_size: int       # |NC(W)| = prod (h + d_i) / d_i
    facets: int         # Cat+(W) = prod (h + d_i - 2) / d_i
    mobius: int         # (-1)^n Cat+(W)
    bounded: int        # prod e_i, e_i = d_i - 1


def _integer(value: Fraction) -> int:
    if value.denominator != 1:
        raise ValueError(f"degree formula gave a non-integer {value}")
    return int(value)


def oracle(label: str) -> Oracle:
    degrees = DEGREES[label]
    n = len(degrees)
    h = max(degrees)
    facets = _integer(prod(Fraction(h + d - 2, d) for d in degrees))
    return Oracle(
        rank=n,
        order=prod(degrees),
        h=h,
        reflections=n * h // 2,
        ncp_size=_integer(prod(Fraction(h + d, d) for d in degrees)),
        facets=facets,
        mobius=(-1) ** n * facets,
        bounded=prod(d - 1 for d in degrees),
    )
