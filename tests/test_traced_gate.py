"""The traced benchmark run's gate.

Each workload's seed-0 plan runs through the benchmark child's ``Run``
with the benchmark's setup clock, suite spans and per-module counters
installed.  The benchmark refuses a traced run in which an operation fails
or a layer it lists for the workload reads 0; this test asserts neither
happens, so a change that stops calling a listed layer fails here first.
It reads ``perfbench/`` and changes nothing there.

The plan runs in a fresh interpreter, as the benchmark's children do, so
that number fields, their refined intervals and the product caches start
cold: in a process that other tests have warmed, a layer can read 0 only
because its work was done before.

Run one workload alone with:
    PYTHONPATH=src python3 tests/test_traced_gate.py WORKLOAD OUT_DIR
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ncph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def traced_gate(workload: str, out_dir: str) -> dict:
    """The failed operations and the unexercised listed layers of one
    traced run of the workload's seed-0 plan, in this process."""
    import child
    import metrics
    import tracing
    from ncph import pipeline, verify
    from ncph.exports import EXPORTERS, to_json
    from ncph.render import render_svg

    job = {"out_dir": out_dir, "plan": workloads.plan(workload, 0)}
    rec = tracing.Recorder(workload, str(Path(out_dir) / "progress"))
    api = SimpleNamespace(Bundle=pipeline.Bundle, RunConfig=pipeline.RunConfig,
                          run_suites=verify.run_suites, EXPORTERS=EXPORTERS,
                          to_json=to_json, render_svg=render_svg)
    run = child.Run(job, rec, api)
    try:
        tracing.install_setup_clock(rec, pipeline)
        tracing.install_suite_spans(rec, verify)
        tracing.install_counters(rec)
        run.run()
    finally:
        rec.close()
    counts = dict(rec.counts)
    counts["exports.bytes"] = run.export_bytes
    values = metrics.per_layer_values(
        {"counts": counts, "timers": dict(rec.timers), "spans": rec.spans,
         "total_s": 0.0}, 0.0)
    return {"failed": [op for op in run.ops if not op["ok"]],
            "unexercised": metrics.unexercised(values, workload)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_plan_passes_the_benchmark_gate(workload, tmp_path):
    # the child imports the same ncph as this process, from any cwd
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(ncph.__file__).resolve().parent.parent),
        env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, __file__, workload, str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"failed": [], "unexercised": []}


if __name__ == "__main__":
    print(json.dumps(traced_gate(sys.argv[1], sys.argv[2])))
