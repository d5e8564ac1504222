"""The ncph benchmark: seeded workloads through the public API, oracle-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --reach

A gated run starts fresh single-threaded child processes one at a time
(a closed loop with one client), each running the whole seeded workload
cold in its own temporary output directory, until the ``--seconds`` window
is used; it reports the median of each end-to-end metric over its
children.  Times are in reference seconds (see ``speed.py``): wall time
scaled by the speed of the child's core, sampled as the child runs; the
plain wall times are printed beside them.  ``--trace 1`` runs one untraced
child and then one traced child of the same plan and reports the
per-module metrics of the traced one; the difference of their total times
is the tracing overhead.

``--reach`` is an ungated one-shot report: ``verify --all`` stage by stage
on A3 through F4 and the stages of H4, each stage under a time limit,
printing each stage's time or "not reached".

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark
reads and writes only inside its checkout: all files go to a temporary
directory ``.perfbench-<pid>`` there, removed before exit, also on
SIGTERM.  If the parent is killed outright, its child stops at its next
speed probe and the next run removes the directory.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

import metrics
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# a gated run must end within 180 s, so no child may outlive this
RUN_LIMIT_S = 170.0
# a stage of the reach report that runs longer ends its group
REACH_STAGE_LIMIT_S = 120.0
# a fixed string hash seed keeps set orders, and so the counts, repeatable;
# no bytecode is written into the checkout
CHILD_ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


class Child:
    """One child process running one plan; killed if it overruns."""

    def __init__(self, work: Path, run_id: str, plan: list[dict], trace: bool):
        work.mkdir(parents=True)
        (work / "out").mkdir()
        self.work = work
        self.plan = plan
        self.job = {"run_id": run_id, "plan": plan, "trace": trace,
                    "src": str(ROOT / "src"), "out_dir": str(work / "out"),
                    "progress": str(work / "progress.log"),
                    "result": str(work / "result.json")}
        (work / "job.json").write_text(json.dumps(self.job))

    def run(self, limit_s: float, stage_limit_s: float | None = None) -> dict:
        """Run to completion or until a limit; return the child's result,
        or, if it was killed or crashed, the operations it had finished and
        the last stage it started."""
        env = dict(os.environ, **CHILD_ENV)
        env.pop("PYTHONPATH", None)
        with open(self.work / "stderr.log", "w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(self.work / "job.json")],
                cwd=self.work, env=env, stdout=subprocess.DEVNULL, stderr=err)
            try:
                killed = self._watch(proc, t0, limit_s, stage_limit_s)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        result_path = Path(self.job["result"])
        if killed is None and proc.returncode == 0 and result_path.is_file():
            result = json.loads(result_path.read_text())
            result["killed"] = None
        else:
            ops, last_stage = self.progress()
            stderr = (self.work / "stderr.log").read_text()[-800:]
            result = {"ops": ops, "last_stage": last_stage,
                      "killed": killed or f"exit code {proc.returncode}: {stderr}"}
        result["parent_wall_s"] = perf_counter() - t0
        result["attempted"] = attempted_ops(self.plan)
        result["failed"] = result["attempted"] - sum(op["ok"] for op in result["ops"])
        return result

    def _watch(self, proc, t0, limit_s, stage_limit_s) -> str | None:
        """Wait for the child; the reason it must be killed, if any."""
        stage, stage_t0 = None, t0
        while True:
            try:
                proc.wait(timeout=min(limit_s, 0.5) if stage_limit_s else limit_s)
                return None
            except subprocess.TimeoutExpired:
                pass
            now = perf_counter()
            if now - t0 > limit_s:
                return f"run over its {limit_s:.0f} s limit"
            if stage_limit_s:
                current = self.progress()[1]
                if current != stage:
                    stage, stage_t0 = current, now
                elif now - stage_t0 > stage_limit_s:
                    return f"stage over its {stage_limit_s:.0f} s limit"

    def progress(self) -> tuple[list[dict], str | None]:
        """Finished operations and the last stage started, from the log the
        child appends to as it goes."""
        path = self.work / "progress.log"
        ops, last_stage = [], None
        for line in path.read_text().splitlines() if path.is_file() else []:
            word, _, rest = line.partition(" ")
            if word == "start":
                last_stage = rest
            elif word == "op":
                group, op, verdict, seconds = rest.split(" ")
                ops.append({"group": group, "op": op, "ok": verdict == "ok",
                            "error": None,
                            "seconds": None if seconds == "None" else float(seconds)})
        return ops, last_stage


def attempted_ops(plan: list[dict]) -> int:
    return sum(workloads.op_count(kind) for g in plan for kind, _ in g["ops"])


def report_failures(child: dict) -> None:
    for op in child["ops"]:
        if not op["ok"]:
            print(f"FAILED {op['group']} {op['op']}: {op['error'] or 'failed'}",
                  file=sys.stderr)
    if child["killed"]:
        print(f"FAILED child stopped in {child['last_stage']}: {child['killed']}",
              file=sys.stderr)


def end_to_end(children: list[dict]) -> dict[str, list[float]]:
    """Per-child samples of each end-to-end metric, and of the plain wall
    times they are derived from."""
    samples: dict[str, list[float]] = {}
    for c in children:
        if c["killed"]:
            continue
        for name, value in (
                ("total_s", c["total_s"]), ("setup_s", c["setup_s"]),
                ("solve_s", c["total_s"] - c["setup_s"]),
                ("max_group_s", max(g["ref_s"] for g in c["groups"])),
                ("peak_rss_mb", c["peak_rss_mb"]),
                ("wall total_s", c["wall_s"]), ("wall setup_s", c["setup_wall_s"])):
            samples.setdefault(name, []).append(value)
    return samples


def gated(args, tmp: Path) -> dict:
    plan = workloads.plan(args.workload, args.seed)
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    start = perf_counter()

    def spawn(trace: bool) -> dict:
        k = len(children)
        remaining = RUN_LIMIT_S - (perf_counter() - start)
        child = Child(tmp / f"child-{k}", run_id, plan, trace).run(remaining)
        children.append(child)
        report_failures(child)
        return child

    children: list[dict] = []
    if args.trace:
        untraced, traced = spawn(False), spawn(True)
    else:
        # closed loop, one client: the next child starts when one ends
        while not spawn(False)["killed"]:
            typical = statistics.median(c["parent_wall_s"] for c in children)
            if perf_counter() - start + typical > args.seconds:
                break

    groups = ", ".join(g["group"] + (" (swapped)" if g["swap"] else "")
                       for g in plan)
    print(f"workload {args.workload} seed {args.seed}: {groups}")
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    print(f"ops_failed_share: {failed}/{attempted}")
    correct = failed == 0
    if args.trace:
        units = metrics.PER_LAYER_UNITS
        values = {}
        if not (untraced["killed"] or traced["killed"]):
            values = metrics.per_layer_values(traced, untraced["total_s"])
            report_spans(traced)
            for name in metrics.unexercised(values, args.workload):
                print(f"FAILED {name} reads 0 on {args.workload}, which "
                      f"exercises it: a wrapped function is no longer called",
                      file=sys.stderr)
                correct = False
    else:
        units = metrics.END_TO_END_UNITS
        samples = end_to_end(children)
        values = {k: statistics.median(samples[k]) for k in units if k in samples}
        for name, vals in samples.items():
            unit = units.get(name, "s")
            print(f"{name}: median {statistics.median(vals):.4f} {unit}, "
                  f"max {max(vals):.4f} {unit} over {len(vals)} children")
    return {
        "correct": correct and len(values) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units if k in values},
    }


def report_spans(child: dict) -> None:
    """Self time by span name on stdout; every span as JSON on stderr."""
    spans = child["spans"]
    own = tracing.self_times(spans)
    by_name: dict[str, float] = {}
    for s in spans:
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + own[s["id"]]
    print("self time by span name (traced child):")
    for name, secs in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"  {name:24s} {secs:9.4f} s")
    print(json.dumps({"spans": spans}), file=sys.stderr)


REACH_GROUPS = ("A3", "B3", "H3", "A4", "B4", "D4", "F4", "H4")
REACH_STAGES = ("system", "ordered", "ncp", "root_complex", "ncp_order_complex",
                "ncp_betti", "rays", "separation", "generic", "chamber_list",
                "bounded_flags", "vertex_complex", "embedding", "basis_cycles")


def reach(args, tmp: Path) -> dict:
    """verify --all stage by stage on A3..F4 and the stages of H4, each
    group in a fresh child; a stage over the limit ends its group."""
    report = {}
    attempted = failed = 0
    for k, label in enumerate(REACH_GROUPS):
        ops = [["stage", s] for s in REACH_STAGES]
        if label != "H4":
            ops += [["suite", s] for s in workloads.SUITE_NAMES]
        plan = [{"group": label, "type": label[0], "rank": int(label[1:]),
                 "swap": False, "ops": ops}]
        child = Child(tmp / f"reach-{k}", f"reach-{label}", plan, False).run(
            float("inf"), REACH_STAGE_LIMIT_S)
        report_failures(child)
        finished = {op["op"]: op for op in child["ops"]}
        row = {}
        for kind, name in ops:
            op = finished.get(f"{kind}:{name}")
            row[f"{kind}:{name}"] = ("not reached" if op is None else
                                     op["seconds"] if op["ok"] else "failed")
        report[label] = row
        attempted += len(finished)
        failed += sum(not op["ok"] for op in finished.values())
        print(f"{label}: {len(finished)}/{len(ops)} stages reached in "
              f"{sum(op['seconds'] for op in finished.values()):.2f} s"
              + (f"; stopped in {child['last_stage']}" if child["killed"] else ""))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {}, "reach": report}


TMP_PREFIX = ".perfbench-"


def sweep_stale_dirs() -> None:
    """Remove the temporary directories of runs whose process is gone."""
    for path in ROOT.glob(TMP_PREFIX + "*"):
        pid = path.name[len(TMP_PREFIX):]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
        except PermissionError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reach", action="store_true",
                        help="ungated one-shot reach report")
    args = parser.parse_args(argv)
    if not args.reach and args.workload is None:
        parser.error("give --workload NAME or --reach")
    if not (ROOT / "src" / "ncph" / "__init__.py").is_file():
        print(f"error: no ncph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so the running child is killed and reaped and the
    # temporary directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sweep_stale_dirs()
    tmp = ROOT / f"{TMP_PREFIX}{os.getpid()}"
    tmp.mkdir()
    try:
        result = reach(args, tmp) if args.reach else gated(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
