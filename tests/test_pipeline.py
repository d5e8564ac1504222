"""RunConfig hashing, the bundle cache, and exact serialization."""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ncph
from ncph import serialize
from ncph.fields import cosine_field, quadratic_field, rationals
from ncph.pipeline import Bundle, RunConfig
from ncph.verify import run_suites
from conftest import bundle_for, from_coords


def test_config_hash_depends_on_inputs():
    base = RunConfig(type_label="B", rank=3)
    assert base.content_hash() == RunConfig(type_label="B", rank=3).content_hash()
    assert base.content_hash() != RunConfig(type_label="B", rank=2).content_hash()
    assert base.content_hash() != RunConfig(type_label="B", rank=3,
                                            swap_classes=True).content_hash()
    assert base.content_hash() != RunConfig(type_label="B", rank=3,
                                            lambda_denominator=32).content_hash()


HASHED_CONFIGS = {
    "A1": RunConfig(type_label="A", rank=1),
    "I2(7)": RunConfig(type_label="I", rank=7),
    "B3": RunConfig(type_label="B", rank=3),
    "B3 swapped": RunConfig(type_label="B", rank=3, swap_classes=True),
    "matrix": RunConfig(type_label="custom", rank=3,
                        matrix=((1, 3, 2), (3, 1, 5), (2, 5, 1))),
    "lambda 32": RunConfig(type_label="A", rank=3, lambda_denominator=32),
}


@pytest.mark.parametrize("name", list(HASHED_CONFIGS))
def test_content_hash_is_the_sha256_of_the_canonical_json(name):
    config = HASHED_CONFIGS[name]
    assert config.content_hash() == hashlib.sha256(
        config.canonical_json().encode()).hexdigest()[:16]


def _run_python(code):
    """Run code in a fresh interpreter that imports the same ncph as this
    process; its stdout, stripped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(ncph.__file__).resolve().parent.parent),
        env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_content_hash_falls_back_to_hashlib_without_the_builtin_module():
    config = HASHED_CONFIGS["B3 swapped"]
    out = _run_python(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from ncph.pipeline import RunConfig, sha256\n"
        "import hashlib\n"
        "assert sha256 is hashlib.sha256\n"
        "print(RunConfig(type_label='B', rank=3, swap_classes=True)"
        ".content_hash())\n")
    assert out == config.content_hash()


def test_importing_ncph_loads_no_openssl():
    out = _run_python(
        "import sys\n"
        "import ncph.cli, ncph.pipeline, ncph.verify, ncph.exports, ncph.render\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
    assert out == "[]"


def test_serialize_roundtrip():
    field = quadratic_field(5)
    x = from_coords(field, (Fraction(3, 7), Fraction(-2, 9)))
    assert tuple(map(Fraction, serialize.scalar(x))) == x.coords
    v = (x, field.one, field.zero)
    assert [tuple(map(Fraction, c)) for c in serialize.vector(v)] \
        == [y.coords for y in v]


def test_serialized_scalars_are_the_lowest_terms_fractions():
    """Each coordinate prints as its Fraction does: p/q in lowest terms,
    q > 0, and 0 as 0/1."""
    rng = random.Random(7)
    for field in (rationals(), quadratic_field(5), cosine_field(7),
                  cosine_field(15)):
        for _ in range(50):
            x = from_coords(field, [Fraction(rng.randint(-60, 60),
                                             rng.randint(1, 36))
                                    for _ in range(field.degree)])
            x = x * x - x if rng.random() < 0.5 else x
            assert serialize.scalar(x) == [f"{c.numerator}/{c.denominator}"
                                           for c in x.coords]
        assert serialize.scalar(field.zero) == ["0/1"] * field.degree


def test_cache_write_and_load(tmp_path):
    config = RunConfig(type_label="B", rank=2, out_dir=str(tmp_path), cache=True)
    fresh = Bundle(config)
    fresh_system = fresh.system           # builds and writes the cache
    path = config.cache_path()
    assert path.is_file()

    reloaded = Bundle(RunConfig(type_label="B", rank=2, out_dir=str(tmp_path),
                                cache=True)).system
    assert [reloaded.matrix(i).rows for i in range(reloaded.order)] \
        == [fresh_system.matrix(i).rows for i in range(fresh_system.order)]
    assert reloaded.lengths == fresh_system.lengths
    assert reloaded.h == fresh_system.h
    assert [(i, tuple(r)) for i, r in reloaded.reflections] \
        == [(i, tuple(r)) for i, r in fresh_system.reflections]


def test_corrupted_cache_falls_back_to_rebuild(tmp_path):
    config = RunConfig(type_label="A", rank=2, out_dir=str(tmp_path), cache=True)
    Bundle(config).system
    path = config.cache_path()
    path.write_text("{ not json")
    rebuilt = Bundle(config).system
    assert rebuilt.order == 6
    # the rebuild repaired the cache file
    assert json.loads(path.read_text())["h"] == 3


def _drop(key):
    def mutate(payload):
        del payload[key]
        return payload
    return mutate


def _set(key, value):
    def mutate(payload):
        payload[key] = value
        return payload
    return mutate


def _edit_list(*path, edit):
    def mutate(payload):
        target = payload
        for key in path:
            target = target[key]
        edit(target)
        return payload
    return mutate


def _set_length(element, value):
    """Set the cached length of A2's e, c or last reflection."""
    def mutate(payload):
        system = bundle_for("A", 2).system
        index = {"e": system.e_index, "c": system.c_index,
                 "t": system.reflections[-1][0]}[element]
        payload["lengths"][index] = value
        return payload
    return mutate


# "field" and "simpleRoots" are keys the writer no longer writes: a payload
# that carries them is of another layout and is rebuilt as well
MALFORMED = {
    "missing h": _drop("h"),
    "missing lengths": _drop("lengths"),
    "null field": _set("field", None),
    "null h": _set("h", None),
    "null simpleRoots": _set("simpleRoots", None),
    "null lengths": _set("lengths", None),
    "field is a string": _set("field", "Q"),
    "h is a string": _set("h", "3"),
    "h is a bool": _set("h", True),
    "lengths is a string": _set("lengths", "0,1,1,1,2,2"),
    "lengths hold strings": _set("lengths", ["0", "1", "1", "1", "2", "2"]),
    "lengths hold floats": _set("lengths", [0.0, 1.0, 1.0, 1.0, 2.0, 2.0]),
    "length out of range": _set("lengths", [0, 1, 1, 1, 2, 7]),
    "simpleRoots is a dict": _set("simpleRoots", {}),
    "wrong h": _set("h", 4),
    "truncated lengths": _edit_list("lengths", edit=list.pop),
    "extended lengths": _edit_list("lengths", edit=lambda x: x.append(0)),
    "e has length 1": _set_length("e", 1),
    "a reflection has length 0": _set_length("t", 0),
    "a reflection has length 2": _set_length("t", 2),
    "c has length 1": _set_length("c", 1),
    "payload is a list": lambda payload: [payload],
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_cache_is_rebuilt_and_rewritten(tmp_path, case):
    config = RunConfig(type_label="A", rank=2, out_dir=str(tmp_path), cache=True)
    fresh = Bundle(config).system
    path = config.cache_path()
    good = path.read_text()
    path.write_text(json.dumps(MALFORMED[case](json.loads(good))))
    rebuilt = Bundle(config).system
    assert rebuilt.order == 6
    assert rebuilt.lengths == fresh.lengths
    assert path.read_text() == good


@pytest.mark.parametrize("key, value", [
    ("rank", 2), ("lambdaDenominator", 32), ("swapClasses", True),
    ("type", "A")])
def test_cache_written_for_another_config_is_rebuilt(tmp_path, key, value):
    """A B3 cache file whose stored config differs from the run's, though
    its h and lengths are B3's, is rebuilt and rewritten."""
    config = RunConfig(type_label="B", rank=3, out_dir=str(tmp_path), cache=True)
    fresh = Bundle(config).system
    path = config.cache_path()
    good = path.read_text()
    payload = json.loads(good)
    payload["config"][key] = value
    path.write_text(json.dumps(payload))
    rebuilt = Bundle(config).system
    assert rebuilt.lengths == fresh.lengths
    assert path.read_text() == good


def test_null_lengths_in_cache_do_not_break_verify(tmp_path):
    from ncph.cli import main
    out = str(tmp_path)
    assert main(["verify", "A", "2", "--all", "--out", out]) == 0
    path = RunConfig(type_label="A", rank=2, out_dir=out).cache_path()
    payload = json.loads(path.read_text())
    payload["lengths"] = None
    path.write_text(json.dumps(payload))
    assert main(["verify", "A", "2", "--all", "--out", out]) == 0


def test_stale_cache_version_ignored(tmp_path):
    config = RunConfig(type_label="A", rank=2, out_dir=str(tmp_path), cache=True)
    Bundle(config).system
    path = config.cache_path()
    payload = json.loads(path.read_text())
    payload["version"] = 999
    path.write_text(json.dumps(payload))
    assert Bundle(config).system.order == 6


def test_run_suites_rejects_unknown_name():
    bundle = Bundle(RunConfig(type_label="A", rank=1, cache=False))
    with pytest.raises(KeyError):
        run_suites(bundle, ["nonsense"])


def test_run_suites_subset():
    bundle = Bundle(RunConfig(type_label="A", rank=1, cache=False))
    report = run_suites(bundle, ["mobius", "betti"])
    assert [c["suite"] for c in report["checks"]] == ["mobius", "betti"]
    assert report["passed"] is True


def _rootorder_details(bundle, roots, reflection_index):
    """Run the rootorder suite on the bundle's root order with its list of
    roots and reflections replaced."""
    bundle.__dict__["ordered"] = dataclasses.replace(
        bundle.ordered, roots=roots, reflection_index=reflection_index)
    check = run_suites(bundle, ["rootorder"])["checks"][0]
    return check["passed"], check["details"]


def test_rootorder_suite_reports_the_tail_checks_it_runs():
    bundle = Bundle(RunConfig(type_label="A", rank=2, cache=False))
    roots, refl = bundle.ordered.roots, bundle.ordered.reflection_index
    passed, details = _rootorder_details(bundle, roots, refl)
    assert passed and details["tailIndependent"] and details["tailProductIsC"]
    # the tail in the opposite order is independent but multiplies to c^-1
    passed, details = _rootorder_details(
        bundle, roots[:1] + roots[:0:-1], refl[:1] + refl[:0:-1])
    assert not passed
    assert details["tailIndependent"] and not details["tailProductIsC"]
    # a repeated root makes the tail dependent, and its product is e
    passed, details = _rootorder_details(
        bundle, roots[:1] + [roots[2], roots[2]], refl[:1] + [refl[2], refl[2]])
    assert not passed
    assert not details["tailIndependent"] and not details["tailProductIsC"]
