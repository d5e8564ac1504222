"""Command-line interface.

    ncph info   <TYPE> <RANK> [options]
    ncph verify <TYPE> <RANK> [--all | --suite NAME] [options]
    ncph render <TYPE> <RANK> [options]            (rank 3 only)
    ncph export <ncp|xc|lattice|embed> <TYPE> <RANK> [options]

TYPE is one of A B C D E F G H I (for type I the second argument is the
dihedral parameter m), or pass --matrix FILE with an explicit Coxeter
matrix as a JSON list of rows.  Exit codes: 0 ok, 1 invariant failure,
2 usage or construction error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .coxeter import BudgetExceededError, NotFiniteTypeError
from .exports import EXPORTERS
from .fields import FieldError
from .pipeline import Bundle, RunConfig
from .rootorder import RootOrderError
from .serialize import vector, write_json
from .verify import SUITES, run_suites


def positive_int(text: str) -> int:
    """A budget or a bound: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, with_group: bool = True):
    defaults = RunConfig()
    if with_group:
        parser.add_argument("type", nargs="?", default=None,
                            help="group type letter (A B C D E F G H I)")
        parser.add_argument("rank", nargs="?", type=int, default=None,
                            help="rank (or m for type I)")
    parser.add_argument("--matrix", metavar="FILE",
                        help="explicit Coxeter matrix (JSON list of rows)")
    parser.add_argument("--out", metavar="DIR", default=defaults.out_dir,
                        help=f"output directory (default {defaults.out_dir})")
    parser.add_argument("--lambda-denom", type=positive_int,
                        default=defaults.lambda_denominator, metavar="N",
                        help="denominator bound for the separation bound")
    parser.add_argument("--group-cap", type=positive_int,
                        default=defaults.group_cap, metavar="N")
    parser.add_argument("--simplex-budget", type=positive_int,
                        default=defaults.simplex_budget, metavar="N")
    parser.add_argument("--swap-classes", action="store_true",
                        help="swap the two color classes of the bipartite "
                             "order (a conjugate rotation; the field is the "
                             "same)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk system cache")


def _read_matrix(path: Path) -> tuple[tuple[int, ...], ...]:
    """The Coxeter matrix in a JSON file: a list of rows, each a list of
    integers (not booleans, floats or strings)."""
    rows = json.loads(path.read_text())
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(type(e) is int for e in row)
            for row in rows)):
        raise ValueError(f"{path}: a Coxeter matrix is a JSON list of rows "
                         "of integers")
    return tuple(tuple(row) for row in rows)


def _config(args) -> RunConfig:
    matrix = None
    type_label, rank = args.type, args.rank
    if args.matrix:
        matrix = _read_matrix(Path(args.matrix))
        type_label, rank = "custom", len(matrix)
    elif type_label is None or rank is None:
        raise SystemExit("error: give TYPE and RANK, or --matrix FILE")
    return RunConfig(
        type_label=type_label,
        rank=rank,
        matrix=matrix,
        swap_classes=args.swap_classes,
        lambda_denominator=args.lambda_denom,
        group_cap=args.group_cap,
        simplex_budget=args.simplex_budget,
        out_dir=args.out,
        cache=not args.no_cache,
    )


def cmd_info(args) -> int:
    bundle = Bundle(_config(args))
    system = bundle.system
    ordered = bundle.ordered
    print(f"group:       {system.diagram.label}")
    print(f"rank n:      {system.rank}")
    print(f"order h:     {system.h}")
    print(f"|W|:         {system.order}")
    print(f"|T| = nh/2:  {len(system.reflections)}")
    print(f"bipartite s: {system.s}  (node order {tuple(p + 1 for p in system.perm)})")
    print(f"field:       {system.field.name}, degree {system.field.degree}")
    print("root order (simple-root coordinates):")
    for i, rho in enumerate(ordered.roots):
        approx = ", ".join(f"{float(x):+.6f}" for x in rho)
        print(f"  rho_{i + 1}: ({approx})   exact {vector(rho)}")
    return 0


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else None
    bundle = Bundle(_config(args))
    report = run_suites(bundle, names)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{report['group']}-verify.json"
    write_json(path, report)
    for check in report["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{mark}] {report['group']} {check['suite']}"
              + (f"  ({check['status']})" if check["status"] != "ok" else ""))
    print(f"report: {path}")
    if report["budgetExceeded"]:
        return 3
    return 0 if report["passed"] else 1


def cmd_render(args) -> int:
    from .render import render_svg
    bundle = Bundle(_config(args))
    svg = render_svg(bundle)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{bundle.system.diagram.label}-projection.svg"
    path.write_text(svg)
    print(path)
    return 0


def cmd_export(args) -> int:
    bundle = Bundle(_config(args))
    payload = EXPORTERS[args.target](bundle)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{bundle.system.diagram.label}-{args.target}.json"
    write_json(path, payload)
    print(path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncph",
        description="noncrossing partition lattice homology, exactly")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="group and root-order summary")
    _add_common(p_info)
    p_info.set_defaults(func=cmd_info)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    _add_common(p_verify)
    which = p_verify.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true",
                       help="run every suite (default)")
    which.add_argument("--suite", choices=sorted(SUITES),
                       help="run a single suite")
    p_verify.set_defaults(func=cmd_verify)

    p_render = sub.add_parser("render", help="rank-3 projection picture (SVG)")
    _add_common(p_render)
    p_render.set_defaults(func=cmd_render)

    p_export = sub.add_parser("export", help="JSON export of built objects")
    p_export.add_argument("target", choices=sorted(EXPORTERS))
    _add_common(p_export)
    p_export.set_defaults(func=cmd_export)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 3
    except (NotFiniteTypeError, RootOrderError, FieldError, ValueError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
