"""Named invariant suites driven by the CLI `verify` subcommand.

Each suite re-checks one block of exact identities on a built bundle and
returns a verdict with enough numbers to audit it.  Budget overruns are
reported distinctly from genuine invariant failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .arrangement import GenericityError
from .complexes import (ComplexError, boundary, cycle_space_rank,
                        fiber_report, poset_map_report,
                        simplex_length_rule_failures)
from .coxeter import BudgetExceededError
from .embed import (EmbedError, intersection_lattice_proper_betti,
                    nonpositive_slice, pairing_report, rays_as_flats_check)
from .linalg import Matrix, dot
from .pipeline import Bundle
from .rootorder import RootOrderError

#: invariant violations surfaced as failed checks, not usage errors
_CHECK_ERRORS = (RootOrderError, ComplexError, EmbedError, GenericityError)


@dataclass
class CheckResult:
    suite: str
    passed: bool
    details: dict = dataclass_field(default_factory=dict)
    status: str = "ok"      # ok | failed | budget-exceeded | error


def _suite_rootorder(bundle: Bundle) -> CheckResult:
    try:
        ordered = bundle.ordered
    except RootOrderError as err:
        return CheckResult("rootorder", False, {"error": str(err)}, "failed")
    system = bundle.system
    expected = system.rank * system.h // 2
    independent = Matrix(system.field, ordered.tau).rank() == system.rank
    product = system.e_index   # r(tau_n) ... r(tau_1)
    for t in reversed(ordered.tau_reflections()):
        product = system.product(product, t)
    product_is_c = product == system.c_index
    passed = ordered.count == expected and independent and product_is_c
    return CheckResult("rootorder", passed, {
        "count": ordered.count,
        "expected": expected,
        "tailIndependent": independent,
        "tailProductIsC": product_is_c,
    })


def _suite_lemma48(bundle: Bundle) -> CheckResult:
    bad = simplex_length_rule_failures(bundle.system, bundle.simplex_images)
    pure = all(len(f) == bundle.system.rank for f in bundle.root_complex.facets)
    return CheckResult("lemma48", not bad and pure, {
        "violations": len(bad),
        "facets": len(bundle.root_complex.facets),
        "pure": pure,
    })


def _suite_poset_map(bundle: Bundle) -> CheckResult:
    report = poset_map_report(bundle.system, bundle.simplex_images)
    return CheckResult("poset-map", report.ok, {
        "monotoneFailures": len(report.monotone_failures),
        "lengthFailures": len(report.length_failures),
        "facetImageFailures": len(report.facet_failures),
    })


def _suite_fibers(bundle: Bundle) -> CheckResult:
    report = fiber_report(bundle.ordered, bundle.root_complex, bundle.ncp,
                          bundle.simplex_images)
    return CheckResult("fibers", report.ok, {
        "properElements": report.checked,
        "mismatches": len(report.mismatches),
    })


def _suite_betti(bundle: Bundle) -> CheckResult:
    betti = bundle.ncp_betti
    facets = len(bundle.root_complex.facets)
    top = bundle.system.rank - 2
    expected = {k: (facets if k == top else 0) for k in betti}
    return CheckResult("betti", betti == expected, {
        "betti": {str(k): v for k, v in betti.items()},
        "facets": facets,
        "topDim": top,
    })


def _suite_mobius(bundle: Bundle) -> CheckResult:
    mu = bundle.ncp.mobius_number()
    facets = len(bundle.root_complex.facets)
    expected = (-1) ** bundle.system.rank * facets
    return CheckResult("mobius", mu == expected, {
        "mobius": mu, "expected": expected,
    })


def _suite_prop41(bundle: Bundle) -> CheckResult:
    lam = bundle.separation
    v = bundle.generic.vector
    lam2 = lam * lam
    zeros = 0
    violations = 0
    system = bundle.system
    co = system.lower(v)
    for ray, norm in zip(bundle.rays, bundle.ray_norms):
        p = dot(ray, co)
        if p.sign() == 0:
            zeros += 1
        if (p * p - norm * lam2).sign() < 0:
            violations += 1
    return CheckResult("prop41", zeros == 0 and violations == 0, {
        "rays": len(bundle.rays),
        "lambda": str(lam),
        "zeroPairings": zeros,
        "inequalityViolations": violations,
    })


def _suite_prop42(bundle: Bundle) -> CheckResult:
    vc = bundle.vertex_complex
    bad = nonpositive_slice(bundle.system, vc, bundle.generic.vector)
    return CheckResult("prop42", not bad, {
        "vertices": len(vc.vertices),
        "nonpositive": len(bad),
    })


def _suite_mu_dots(bundle: Bundle) -> CheckResult:
    report = pairing_report(bundle.system, bundle.vertex_complex)
    return CheckResult("mu-dots", report.ok, {
        "negativePairs": len(report.negative_pairs),
        "nonzeroBand": len(report.nonzero_band),
    })


def _suite_embed(bundle: Bundle) -> CheckResult:
    report = bundle.embedding
    betti = intersection_lattice_proper_betti(bundle.system,
                                              bundle.config.simplex_budget,
                                              bundle.lattice)
    top = bundle.system.rank - 2
    basis_size = betti.get(top, 0)
    others_vanish = all(v == 0 for k, v in betti.items() if k != top)
    rays_ok = bundle.system.rank == 1 or rays_as_flats_check(
        bundle.system, bundle.rays, bundle.lattice)
    cycles = bundle.basis_cycles
    cycles_closed = not any(boundary(c) for c in cycles)
    cycle_rank = cycle_space_rank(cycles, bundle.ncp_order_complex, top)
    passed = (report.ok and basis_size == report.bounded_count
              and others_vanish and rays_ok and cycles_closed
              and cycle_rank == len(report.facets))
    return CheckResult("embed", passed, {
        "facets": len(report.facets),
        "boundedChambers": report.bounded_count,
        "intersectionBetti": {str(k): v for k, v in betti.items()},
        "incidenceRank": report.rank,
        "injective": report.injective,
        "columnsDisjoint": report.columns_disjoint,
        "columnsNonempty": report.columns_nonempty,
        "incidentAllBounded": report.incident_all_bounded,
        "coveredChambers": report.covered_chambers,
        "cyclesClosed": cycles_closed,
        "cycleRank": cycle_rank,
        "raysMatchFlats": rays_ok,
    })


SUITES = {
    "rootorder": _suite_rootorder,
    "lemma48": _suite_lemma48,
    "poset-map": _suite_poset_map,
    "fibers": _suite_fibers,
    "betti": _suite_betti,
    "mobius": _suite_mobius,
    "prop41": _suite_prop41,
    "prop42": _suite_prop42,
    "mu-dots": _suite_mu_dots,
    "embed": _suite_embed,
}


def run_suites(bundle: Bundle, names=None) -> dict:
    names = list(SUITES) if names is None else list(names)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        try:
            results.append(SUITES[name](bundle))
        except BudgetExceededError as err:
            results.append(CheckResult(name, False, {"error": str(err)},
                                       "budget-exceeded"))
        except _CHECK_ERRORS as err:
            results.append(CheckResult(name, False, {"error": str(err)},
                                       "error"))
    label = bundle.config.diagram().label
    return {
        "group": label,
        "configHash": bundle.config.content_hash(),
        "checks": [
            {"suite": r.suite, "passed": r.passed, "status": r.status,
             "details": r.details}
            for r in results
        ],
        "passed": all(r.passed for r in results),
        "budgetExceeded": any(r.status == "budget-exceeded" for r in results),
    }
