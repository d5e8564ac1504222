"""The gated workloads and the seeded plan each run executes.

Why each workload was chosen is recorded in ``BENCHMARK.json``.

A plan is plain data (group label, type, rank, swap flag, operations), so
the parent process can count the operations of a child it had to kill.
An operation is one stage, suite, export or render call for one group;
``("suites", "all")`` is the single ``run_suites(bundle)`` call of the
verify-all workload and stands for one operation per suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

SUITE_NAMES = ("rootorder", "lemma48", "poset-map", "fibers", "betti",
               "mobius", "prop41", "prop42", "mu-dots", "embed")

SLICE_STAGES = ("system", "ordered", "root_complex", "rays", "separation",
                "generic", "chamber_list", "bounded_flags", "vertex_complex",
                "embedding")


def _ladder_ops(label: str) -> list[tuple[str, str]]:
    return ([("stage", s) for s in ("system", "ordered", "ncp", "root_complex")]
            + [("suite", s) for s in ("rootorder", "lemma48", "poset-map",
                                      "fibers", "mobius")]
            + [("export", "ncp"), ("reload", "system"), ("reload", "rootorder")])


def _verify_ops(label: str) -> list[tuple[str, str]]:
    return [("suites", "all")]


def _slice_ops(label: str) -> list[tuple[str, str]]:
    ops = ([("stage", s) for s in SLICE_STAGES]
           + [("suite", s) for s in ("prop41", "prop42", "mu-dots")]
           + [("export", "xc"), ("export", "embed")])
    if label == "H3":
        ops += [("export", "lattice"), ("render", "svg")]
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[str, ...]
    ops: Callable[[str], list[tuple[str, str]]]   # the operations of a group


WORKLOADS = {w.name: w for w in (
    Workload("ncp-ladder", ("A3", "B3", "H3", "A4", "D4", "B4", "F4"),
             _ladder_ops),
    Workload("verify-all", ("A3", "B3", "H3", "A4", "D4"),
             _verify_ops),
    Workload("slice-embed", ("H3", "A4", "B4"),
             _slice_ops),
)}


# The seed flips swap_classes only for groups whose two class orders are
# realized over the same number field.  For the others the class order
# changes the field (A3, A4, D4 and F4: F4 costs about 2x and D4 about 4.5x
# more swapped), so a seeded flip would change how much work a run does
# rather than which input of the same size it gets; and H3 swapped does
# not realize at all (RealizationError), a defect the self-tests track.
SWAPPABLE = frozenset({"B3", "B4"})


def op_count(kind: str) -> int:
    """How many operations one plan entry stands for."""
    return len(SUITE_NAMES) if kind == "suites" else 1


def plan(workload: str, seed: int) -> list[dict]:
    """The seeded group order and class swaps of one run.

    Seeds 2k and 2k+1 share a group order and have complementary
    ``swap_classes`` flags, so two consecutive seeds run every group in
    ``SWAPPABLE`` in both bipartite class orders.
    """
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed // 2}")
    groups = list(wl.groups)
    rng.shuffle(groups)
    out = []
    for label in groups:
        swap = label in SWAPPABLE and (rng.random() < 0.5) != bool(seed % 2)
        out.append({"group": label, "type": label[0], "rank": int(label[1:]),
                    "swap": swap, "ops": [list(op) for op in wl.ops(label)]})
    return out
