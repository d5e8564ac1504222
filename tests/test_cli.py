"""CLI surface: info, verify, render, export, determinism, cache."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncph
from ncph.cli import main
from ncph.exports import EXPORTERS, to_json
from ncph.pipeline import Bundle, RunConfig
from ncph.verify import run_suites


def run_cli(args, cwd, timeout=None):
    # The child must import the same ncph as this process, from any cwd:
    # put the absolute directory that holds the package first on PYTHONPATH
    # (a relative entry such as "src" does not resolve under another cwd).
    package_root = str(Path(ncph.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ncph.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)


def test_info_a2(tmp_path, capsys):
    assert main(["info", "A", "2", "--out", str(tmp_path), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "rank n:      2" in out
    assert "order h:     3" in out
    assert "|T| = nh/2:  3" in out
    assert "rho_3" in out


def test_info_a1(tmp_path, capsys):
    assert main(["info", "A", "1", "--out", str(tmp_path), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "order h:     2" in out
    assert "|T| = nh/2:  1" in out


def test_verify_single_suite(tmp_path, capsys):
    code = main(["verify", "A", "2", "--suite", "fibers",
                 "--out", str(tmp_path), "--no-cache"])
    assert code == 0
    assert "[PASS] A2 fibers" in capsys.readouterr().out


def test_verify_all_rank_one(tmp_path, capsys):
    code = main(["verify", "A", "1", "--all", "--out", str(tmp_path),
                 "--no-cache"])
    assert code == 0
    report = json.loads((tmp_path / "A1-verify.json").read_text())
    assert report["passed"] is True
    assert len(report["checks"]) == 10


def test_verify_all_b3_reports_expected_counts(tmp_path):
    code = main(["verify", "B", "3", "--all", "--out", str(tmp_path),
                 "--no-cache"])
    assert code == 0
    report = json.loads((tmp_path / "B3-verify.json").read_text())
    embed = next(c for c in report["checks"] if c["suite"] == "embed")
    assert embed["details"]["boundedChambers"] == 15
    assert embed["details"]["facets"] == 10


def test_export_ncp_a2(tmp_path):
    assert main(["export", "ncp", "A", "2", "--out", str(tmp_path),
                 "--no-cache"]) == 0
    data = json.loads((tmp_path / "A2-ncp.json").read_text())
    assert len(data["elements"]) == 5
    lengths = sorted(e["length"] for e in data["elements"])
    assert lengths == [0, 1, 1, 1, 2]
    assert sorted(data["hasse"]) == [[0, 1], [0, 2], [0, 3],
                                     [1, 4], [2, 4], [3, 4]]
    assert data["field"]["name"] == "Q"
    assert data["form"] == [[["1/1"], ["-1/2"]], [["-1/2"], ["1/1"]]]


def test_export_xc_a1(tmp_path):
    assert main(["export", "xc", "A", "1", "--out", str(tmp_path),
                 "--no-cache"]) == 0
    data = json.loads((tmp_path / "A1-xc.json").read_text())
    assert len(data["vertices"]) == 1
    assert data["edges"] == []
    assert data["facets"] == [[1]]


def test_export_embed_b3(tmp_path):
    assert main(["export", "embed", "B", "3", "--out", str(tmp_path),
                 "--no-cache"]) == 0
    data = json.loads((tmp_path / "B3-embed.json").read_text())
    assert len(data["incidence"]) == 15
    assert all(len(row) == 10 for row in data["incidence"])
    assert data["rank"] == 10 and data["injective"] is True
    assert [2, 4, 8] in data["facets"]
    weight2 = [data["facets"][c] for c in range(10)
               if data["columnWeights"][c] == 2]
    assert weight2 == [[2, 4, 8]]


def test_export_lattice_a2(tmp_path):
    assert main(["export", "lattice", "A", "2", "--out", str(tmp_path),
                 "--no-cache"]) == 0
    data = json.loads((tmp_path / "A2-lattice.json").read_text())
    assert [f["codim"] for f in data["flats"]] == [0, 1, 1, 1, 2]


def test_export_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["export", "embed", "B", "3", "--out", str(out), "--no-cache"])
        main(["render", "B", "3", "--out", str(out), "--no-cache"])
    assert (a / "B3-embed.json").read_bytes() == (b / "B3-embed.json").read_bytes()
    assert ((a / "B3-projection.svg").read_bytes()
            == (b / "B3-projection.svg").read_bytes())


def test_render_b3_markers(tmp_path):
    assert main(["render", "B", "3", "--out", str(tmp_path),
                 "--no-cache"]) == 0
    svg = (tmp_path / "B3-projection.svg").read_text()
    assert svg.count('class="facet"') == 10
    assert svg.count('class="region"') == 15
    assert svg.count('class="vertex-label"') == 9
    assert 'viewBox="0 0 1000 1000"' in svg


def test_render_a3_and_h3_run(tmp_path):
    assert main(["render", "A", "3", "--out", str(tmp_path),
                 "--no-cache"]) == 0
    svg = (tmp_path / "A3-projection.svg").read_text()
    assert svg.count('class="facet"') == 5
    assert svg.count('class="region"') == 6
    # H3: 21 facet cones (Cat+) and 15 labeled vertices (the positive roots)
    assert main(["render", "H", "3", "--out", str(tmp_path),
                 "--no-cache"]) == 0
    svg = (tmp_path / "H3-projection.svg").read_text()
    assert svg.count('class="facet"') == 21
    assert svg.count('class="vertex-label"') == 15


def test_render_wrong_rank_fails(tmp_path):
    assert main(["render", "A", "2", "--out", str(tmp_path),
                 "--no-cache"]) == 2


def test_matrix_file_input(tmp_path):
    mfile = tmp_path / "m.json"
    mfile.write_text("[[1,3],[3,1]]")
    assert main(["info", "--matrix", str(mfile), "--out", str(tmp_path),
                 "--no-cache"]) == 0


def test_not_finite_type_exit_code(tmp_path):
    mfile = tmp_path / "affine.json"
    mfile.write_text("[[1,3,3],[3,1,3],[3,3,1]]")
    assert main(["verify", "--matrix", str(mfile), "--all",
                 "--out", str(tmp_path), "--no-cache"]) == 2


@pytest.mark.parametrize("rows,components", [
    ([[1, 4, 2, 2], [4, 1, 2, 2], [2, 2, 1, 5], [2, 2, 5, 1]],
     "[0, 1], [2, 3]"),                                    # B2 x I2(5)
    ([[1, 2, 2], [2, 1, 4], [2, 4, 1]], "[0], [1, 2]"),    # A1 x B2
])
def test_reducible_matrix_is_a_usage_error(tmp_path, rows, components):
    mfile = tmp_path / "product.json"
    mfile.write_text(json.dumps(rows))
    result = run_cli(["verify", "--matrix", str(mfile), "--all",
                      "--out", str(tmp_path), "--no-cache"], tmp_path)
    assert result.returncode == 2, result.stderr
    assert (f"error: reducible diagram: components {components}"
            in result.stderr)
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("text", [
    "5", "[1,2]", "[null]", "[[1,2.5],[2.5,1]]", "[[1,3.0],[3.0,1]]",
    "[[true,3],[3,true]]", '[[1,"3"],["3",1]]', '{"rows": [[1,3],[3,1]]}',
    "[[1,3],[3,1]"])
def test_malformed_matrix_file_is_a_usage_error(tmp_path, text):
    """Only a JSON list of rows of integers is a Coxeter matrix: a float or
    a boolean is not read as an integer, and no input gives a traceback."""
    mfile = tmp_path / "bad.json"
    mfile.write_text(text)
    result = run_cli(["info", "--matrix", str(mfile), "--out", str(tmp_path),
                      "--no-cache"], tmp_path, timeout=60)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("denominator", ["0", "-5"])
def test_nonpositive_lambda_denominator_is_a_usage_error(tmp_path,
                                                         denominator):
    """A denominator bound below 1 admits no p/q: it is refused when the
    arguments are parsed rather than searched for ever."""
    result = run_cli(["verify", "A", "3", "--suite", "prop41",
                      "--lambda-denom", denominator, "--out", str(tmp_path),
                      "--no-cache"], tmp_path, timeout=60)
    assert result.returncode == 2, result.stderr
    assert "error: argument --lambda-denom: must be at least 1" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("flag", ["--group-cap", "--simplex-budget",
                                  "--lambda-denom"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_budget_is_a_usage_error(tmp_path, flag, value):
    """A budget or bound below 1 is malformed input, not an exceeded
    budget: it is refused before anything is built or cached."""
    result = run_cli(["info", "A", "3", flag, value, "--out", str(tmp_path)],
                     tmp_path, timeout=60)
    assert result.returncode == 2, result.stderr
    assert f"error: argument {flag}: must be at least 1" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "cache").exists()


def test_budget_exit_code(tmp_path):
    # budget overruns are reported distinctly from invariant failures
    assert main(["verify", "B", "3", "--all", "--group-cap", "10",
                 "--out", str(tmp_path), "--no-cache"]) == 3
    report = json.loads((tmp_path / "B3-verify.json").read_text())
    assert report["budgetExceeded"] is True


def test_cache_roundtrip_matches_fresh(tmp_path):
    cached_dir = tmp_path / "cached"
    main(["export", "ncp", "B", "2", "--out", str(cached_dir)])   # writes cache
    assert (cached_dir / "cache").is_dir()
    main(["export", "ncp", "B", "2", "--out", str(cached_dir)])   # reads cache
    fresh_dir = tmp_path / "fresh"
    main(["export", "ncp", "B", "2", "--out", str(fresh_dir), "--no-cache"])
    assert ((cached_dir / "B2-ncp.json").read_bytes()
            == (fresh_dir / "B2-ncp.json").read_bytes())


def test_info_defaults_are_the_run_config_defaults(monkeypatch):
    """With no options the CLI builds the library's default RunConfig, so
    both key the same cache entry."""
    import ncph.cli

    built = []

    class Built(Exception):
        pass

    def record(config):
        built.append(config)
        raise Built

    monkeypatch.setattr(ncph.cli, "Bundle", record)
    with pytest.raises(Built):
        main(["info", "A", "3"])
    assert built == [RunConfig(type_label="A", rank=3)]
    assert built[0].content_hash() == RunConfig(type_label="A",
                                                rank=3).content_hash()


def test_info_b3_summary(tmp_path, capsys):
    assert main(["info", "B", "3", "--out", str(tmp_path), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "rank n:      3" in out
    assert "order h:     6" in out
    assert "|W|:         48" in out
    assert "|T| = nh/2:  9" in out


def test_verify_all_h3(tmp_path):
    code = main(["verify", "H", "3", "--all", "--out", str(tmp_path),
                 "--no-cache"])
    assert code == 0
    report = json.loads((tmp_path / "H3-verify.json").read_text())
    assert report["passed"] is True
    embed = next(c for c in report["checks"] if c["suite"] == "embed")
    assert embed["details"]["facets"] == 21
    assert embed["details"]["boundedChambers"] == 45


def test_verify_all_passes_with_swapped_classes(tmp_path):
    # the other bipartition choice gives a conjugate rotation; every
    # invariant is convention-independent
    code = main(["verify", "A", "3", "--all", "--swap-classes",
                 "--out", str(tmp_path), "--no-cache"])
    assert code == 0


@pytest.mark.parametrize("rank,order,h,reflections", [
    ("3", 120, 10, 15), ("4", 14400, 30, 60)])
def test_info_h_with_swapped_classes(rank, order, h, reflections, tmp_path,
                                     capsys):
    # |W| = prod d_i, h = max d_i, |T| = sum (d_i - 1) for the degrees
    # (2, 6, 10) of H3 and (2, 12, 20, 30) of H4
    assert main(["info", "H", rank, "--swap-classes", "--out", str(tmp_path),
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert f"|W|:         {order}\n" in out
    assert f"order h:     {h}\n" in out
    assert f"|T| = nh/2:  {reflections}\n" in out
    assert "field:       Q(sqrt5), degree 2" in out


def test_verify_all_h3_with_swapped_classes(tmp_path):
    code = main(["verify", "H", "3", "--all", "--swap-classes",
                 "--out", str(tmp_path), "--no-cache"])
    assert code == 0
    report = json.loads((tmp_path / "H3-verify.json").read_text())
    assert report["passed"] is True
    embed = next(c for c in report["checks"] if c["suite"] == "embed")
    assert embed["details"]["facets"] == 21
    assert embed["details"]["boundedChambers"] == 45


def test_export_header_does_not_depend_on_earlier_work(tmp_path):
    # the verify suites refine the isolating interval of Q(sqrt5) in this
    # process; the export must still equal the one of a fresh process
    bundle = Bundle(RunConfig(type_label="H", rank=3, cache=False))
    assert run_suites(bundle)["passed"]
    after_suites = to_json(EXPORTERS["embed"](bundle))
    result = run_cli(["export", "embed", "H", "3", "--out", str(tmp_path),
                      "--no-cache"], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "H3-embed.json").read_text() == after_suites
    header = json.loads(after_suites)
    assert header["field"]["isolatingInterval"] == ["2/1", "3/1"]
    assert len(header["form"]) == 3


def test_swap_classes_changes_bipartition(tmp_path, capsys):
    main(["info", "A", "3", "--out", str(tmp_path), "--no-cache"])
    default = capsys.readouterr().out
    main(["info", "A", "3", "--swap-classes", "--out", str(tmp_path),
          "--no-cache"])
    swapped = capsys.readouterr().out
    assert "node order (1, 3, 2)" in default
    assert "node order (2, 1, 3)" in swapped


def test_cli_as_subprocess(tmp_path):
    result = run_cli(["info", "A", "2", "--out", str(tmp_path), "--no-cache"],
                     cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "|W|:         6" in result.stdout
