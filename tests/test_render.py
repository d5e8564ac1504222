"""The rank-3 picture: pinned bytes, independence of earlier exact work,
and the shaded region count."""

import hashlib
from math import prod

import pytest

from ncph.cli import main
from ncph.pipeline import Bundle, RunConfig
from ncph.render import render_svg
from ncph.verify import run_suites

# sha256 of `ncph render <TYPE> <RANK> --no-cache [--swap-classes]`; the
# float operations of the picture are fixed in their order, so any change
# of these bytes is a change of the picture, or of the order of its paths
# (the shaded chambers are drawn in chamber-list order)
PINNED_SVG = {
    ("A", "3", False): "afb5f7246af4ca1b5a67563f957dc2176059b660cde46d509633c6c2ce667c34",
    ("A", "3", True): "25f20049d70caddd4962c8bba43b14b3fbd0da6a653104f286a96af66e146e4d",
    ("B", "3", False): "3cc202126f4a071db42dc35ebcbc829e714c179e06bafc6b311d5093af84491e",
    ("B", "3", True): "c9485c3854bb30f944192ae22ed6215f62a8b93edde2753833f2a279b66aa282",
    ("H", "3", False): "18432689d2d740d8a9b95db1aa2f8a553b5586c1eb290db4c24457f1353516d6",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("label,rank,swap", list(PINNED_SVG))
def test_cli_svg_bytes_are_pinned(label, rank, swap, tmp_path):
    args = ["render", label, rank, "--out", str(tmp_path), "--no-cache"]
    assert main(args + (["--swap-classes"] if swap else [])) == 0
    svg = (tmp_path / f"{label}{rank}-projection.svg").read_text()
    assert _sha(svg) == PINNED_SVG[label, rank, swap]


def test_h3_svg_is_unchanged_by_the_verify_suites():
    """float() of a scalar reads theta correctly rounded, fixed per field, so
    the sign refinements the suites run leave the picture as it was."""
    bundle = Bundle(RunConfig(type_label="H", rank=3, cache=False))
    before = render_svg(bundle)
    assert run_suites(bundle)["passed"]
    assert render_svg(bundle) == before
    assert _sha(before) == PINNED_SVG["H", "3", False]


def test_h3_shades_one_region_per_bounded_chamber():
    bundle = Bundle(RunConfig(type_label="H", rank=3, cache=False))
    svg = render_svg(bundle)
    exponents = (1, 5, 9)
    assert svg.count('class="region"') == sum(bundle.bounded_flags) == prod(exponents)
