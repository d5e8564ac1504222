"""Serialization of exact values: rationals as "p/q" strings, scalars as
power-basis coordinate arrays, vectors and matrices as nested arrays."""

from __future__ import annotations

from fractions import Fraction

from .fields import NumberField, Scalar


def fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def scalar(x: Scalar) -> list[str]:
    return [fraction(c) for c in x.coords]


def vector(v) -> list[list[str]]:
    return [scalar(x) for x in v]


def matrix(m) -> list[list[list[str]]]:
    return [vector(row) for row in m.rows]


def scalar_from(field: NumberField, data) -> Scalar:
    return field.from_coords([Fraction(c) for c in data])


def vector_from(field: NumberField, data) -> tuple:
    return tuple(scalar_from(field, x) for x in data)
