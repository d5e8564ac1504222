"""The streaming JSON writer against the standard library's encoder, which
is the reference: the same bytes for arbitrary payloads and for every file
ncph writes; and a write that fails leaves no file behind."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from ncph.cli import main
from ncph.exports import EXPORTERS
from ncph.pipeline import Bundle, RunConfig
from ncph.serialize import iter_json, to_json, write_json
from ncph.verify import run_suites
from conftest import bundle_for


def reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


texts = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f",
                     "é", " ", "😀", "p/q", ""]))
ints = st.one_of(st.integers(), st.integers(-2**80, 2**80),
                 st.sampled_from([2**64, 2**64 + 1, -2**64, 0, -1]))
leaves = st.one_of(st.none(), st.booleans(), ints, texts)
flat_lists = st.one_of(st.lists(ints), st.lists(texts),
                       st.lists(st.one_of(ints, st.booleans())))
values = st.recursive(
    st.one_of(leaves, flat_lists),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4)),
    max_leaves=25)


@st.composite
def payloads(draw):
    """A value, and one flat list held at two depths and three times at
    one of them."""
    shared = draw(st.one_of(st.lists(ints, min_size=1),
                            st.lists(texts, min_size=1)))
    return {"data": draw(values), "shared": [shared, [shared], shared],
            "nested": ([shared], {"x": shared}), "empty": [[], {}, ()]}


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_equals_the_stdlib_encoder(payload):
    text = to_json(payload)
    assert text == reference(payload)
    assert "".join(iter_json(payload)) + "\n" == text


@settings(max_examples=100, deadline=None)
@given(payloads())
def test_a_shared_list_is_written_like_the_stdlib_encoder(payload):
    assert to_json(payload) == reference(payload)


@pytest.mark.parametrize("value", [
    1.5, [1, 2.5], {"a": float("nan")}, {1: 0}, {None: 0}, {1, 2},
    b"bytes", [object()], range(3)])
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError):
        to_json(value)


@pytest.mark.parametrize("label,rank,swap", [
    ("A", 1, False), ("G", 2, False), ("I", 7, False), ("A", 3, False),
    ("B", 3, False), ("B", 3, True), ("H", 3, False), ("B", 4, False),
    ("F", 4, False)])
def test_every_export_is_the_stdlib_encoding(label, rank, swap):
    bundle = bundle_for(label, rank, swap)
    for target, exporter in EXPORTERS.items():
        payload = exporter(bundle)
        assert to_json(payload) == reference(payload), target


def test_h4_ncp_and_embed_exports_are_the_stdlib_encoding():
    bundle = Bundle(RunConfig(type_label="H", rank=4, cache=False))
    for target in ("ncp", "embed"):
        payload = EXPORTERS[target](bundle)
        assert to_json(payload) == reference(payload), target


def test_verify_report_is_the_stdlib_encoding():
    report = run_suites(bundle_for("B", 3))
    assert to_json(report) == reference(report)


def test_write_json_streams_the_same_bytes(tmp_path):
    payload = EXPORTERS["xc"](bundle_for("A", 3))
    path = tmp_path / "A3-xc.json"
    write_json(path, payload)
    assert path.read_text() == reference(payload)
    assert [p.name for p in tmp_path.iterdir()] == ["A3-xc.json"]


def test_a_failed_export_leaves_no_file(monkeypatch, tmp_path):
    args = ["export", "ncp", "A", "2", "--out", str(tmp_path), "--no-cache"]
    # a payload that fails after its first keys are written
    monkeypatch.setitem(EXPORTERS, "ncp", lambda bundle: {
        "a": [[1, 2]] * 3, "b": list(range(10 ** 4)), "z": [0.5]})
    with pytest.raises(TypeError):
        main(args)
    assert list(tmp_path.iterdir()) == []


def test_a_failed_export_keeps_the_previous_file(monkeypatch, tmp_path):
    args = ["export", "ncp", "A", "2", "--out", str(tmp_path), "--no-cache"]
    assert main(args) == 0
    (written,) = tmp_path.iterdir()
    before = written.read_bytes()
    monkeypatch.setitem(EXPORTERS, "ncp", lambda bundle: {"z": {0.5}})
    with pytest.raises(TypeError):
        main(args)
    assert list(tmp_path.iterdir()) == [written]
    assert written.read_bytes() == before
