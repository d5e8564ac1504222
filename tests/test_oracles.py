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
NC(W) has n! h^n / |W| maximal chains (Chapoton, Enumerative properties of
generalized associahedra, Sem. Lothar. Combin. 51, 2004), and the proper
part of the partition lattice L(A_n) has n! (n+1)! / 2^n: a maximal chain
of set partitions of n+1 points merges two blocks at each step.
None of these values comes from the code under test.
"""

from fractions import Fraction
from math import factorial, prod

import pytest

from ncph.complexes import order_complex
from ncph.embed import flat_covers
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


@pytest.mark.parametrize("label,chains", [
    ("A3", 16), ("B3", 27), ("H3", 50), ("A4", 125), ("D4", 162),
    ("B4", 256), ("F4", 432), ("E6", 41472)])
def test_maximal_chains_of_the_lattice_match_the_degrees(label, chains):
    degrees = DEGREES[label]
    n, h = len(degrees), max(degrees)
    assert _integer(Fraction(factorial(n) * h ** n, prod(degrees))) == chains
    bundle = bundle_for(label[0], n)
    assert len(bundle.ncp_order_complex.facets) == chains


@pytest.mark.parametrize("n,chains", [(3, 18), (4, 180)])
def test_maximal_chains_of_the_partition_lattice(n, chains):
    assert factorial(n) * factorial(n + 1) // 2 ** n == chains
    flats = bundle_for("A", n).lattice
    proper = [f for f in flats if 0 < f.codim < n]
    assert len(order_complex(flat_covers(proper)).facets) == chains
