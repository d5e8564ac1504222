"""Closed-form oracles from the degrees of the basic invariants.

For a finite Coxeter group of rank n with degrees d_1..d_n (Humphreys,
Reflection Groups and Coxeter Groups, Table 3.1) and Coxeter number
h = max d_i:

    |W| = prod d_i,  |T| = sum (d_i - 1),  |NC(W)| = prod (h + d_i) / d_i,

and the Moebius number of NC(W) is (-1)^n prod (h + d_i - 2) / d_i
(Armstrong, Generalized noncrossing partitions, arXiv math/0611106).  The
root complex has Cat+(W) = prod (h + d_i - 2) / d_i facets, the rank of the
facet-chamber incidence, and the generic slice is bounded in
prod (d_i - 1) chambers, the top Betti number of the intersection lattice.
None of these values comes from the code under test.
"""

from fractions import Fraction
from math import prod

import pytest

from conftest import bundle_for

DEGREES = {
    "A3": (2, 3, 4),
    "B3": (2, 4, 6),
    "H3": (2, 6, 10),
    "A4": (2, 3, 4, 5),
    "D4": (2, 4, 4, 6),
    "B4": (2, 4, 6, 8),
    "F4": (2, 6, 8, 12),
    "H4": (2, 12, 20, 30),
    "E6": (2, 5, 6, 8, 9, 12),
}


def _integer(q: Fraction) -> int:
    assert q.denominator == 1
    return q.numerator


@pytest.mark.parametrize("label", list(DEGREES))
def test_group_and_lattice_sizes_match_the_degrees(label):
    degrees = DEGREES[label]
    h = max(degrees)
    bundle = bundle_for(label[0], int(label[1:]))
    system = bundle.system
    assert system.rank == len(degrees)
    assert system.order == prod(degrees)
    assert system.h == h
    assert len(system.reflections) == sum(d - 1 for d in degrees)
    assert bundle.ncp.size == _integer(prod(Fraction(h + d, d) for d in degrees))


@pytest.mark.parametrize("label", [g for g in DEGREES if g != "H4"])
def test_mobius_number_matches_the_degrees(label):
    degrees = DEGREES[label]
    h = max(degrees)
    ncp = bundle_for(label[0], int(label[1:])).ncp
    expected = (-1) ** len(degrees) * prod(Fraction(h + d - 2, d) for d in degrees)
    assert ncp.mobius_number() == _integer(expected)


@pytest.mark.parametrize("label", ["A3", "B3", "H3", "A4", "D4", "B4", "F4"])
def test_facets_and_bounded_chambers_match_the_degrees(label):
    degrees = DEGREES[label]
    h = max(degrees)
    positive_catalan = _integer(prod(Fraction(h + d - 2, d) for d in degrees))
    bounded = prod(d - 1 for d in degrees)
    bundle = bundle_for(label[0], int(label[1:]))
    report = bundle.embedding
    assert len(bundle.root_complex.facets) == positive_catalan
    assert len(report.facets) == positive_catalan
    assert report.rank == positive_catalan
    assert sum(bundle.bounded_flags) == bounded
    assert report.bounded_count == bounded


def test_e6_root_complex_facets_match_the_degrees():
    # Cat+(E6) = 418 facets; the Gram matrix of a simply laced diagram is
    # rational
    degrees = DEGREES["E6"]
    h = max(degrees)
    bundle = bundle_for("E", 6)
    assert bundle.system.field.name == "Q"
    assert len(bundle.root_complex.facets) == _integer(
        prod(Fraction(h + d - 2, d) for d in degrees)) == 418
