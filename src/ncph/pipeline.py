"""Run configuration and the lazily built artifact bundle.

A RunConfig identifies a computation completely; two runs with equal
configs produce byte-identical outputs.  The bundle builds each artifact on
first use.  The system's realization (field and simple roots), Coxeter
number and reflection lengths can be cached on disk under a content hash of
the config; a cached system is rebuilt from them by the same code as a
fresh one, skipping the field search and the length ranks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Optional

from . import embed, serialize
from .arrangement import (DEFAULT_DENOMINATOR_BOUND, GenericVector, chambers,
                          bounded_slice, enumerate_rays, generic_vector,
                          ray_separation_bound)
from .complexes import (DEFAULT_SIMPLEX_BUDGET, NcpLattice, SimplicialComplex,
                        betti_numbers, build_ncp, build_root_complex,
                        facet_boundary_cycles, order_complex)
from .coxeter import (DEFAULT_GROUP_CAP, CoxeterDiagram, CoxeterSystem)
from .embed import EmbeddingReport, VertexComplex, embedding_report, vertex_complex
from .fields import catalog_field_by_name
from .rootorder import OrderedRoots, ordered_roots

CACHE_VERSION = 2


@dataclass(frozen=True)
class RunConfig:
    type_label: str = "A"
    rank: int = 2
    matrix: Optional[tuple[tuple[int, ...], ...]] = None
    swap_classes: bool = False
    lambda_denominator: int = DEFAULT_DENOMINATOR_BOUND
    group_cap: int = DEFAULT_GROUP_CAP
    simplex_budget: int = DEFAULT_SIMPLEX_BUDGET
    out_dir: str = "ncph-out"
    cache: bool = True

    def diagram(self) -> CoxeterDiagram:
        if self.matrix is not None:
            return CoxeterDiagram.from_matrix(self.matrix)
        return CoxeterDiagram.from_type(self.type_label, self.rank)

    def canonical_json(self) -> str:
        payload = {
            "type": self.type_label,
            "rank": self.rank,
            "matrix": [list(r) for r in self.matrix] if self.matrix else None,
            "swapClasses": self.swap_classes,
            "lambdaDenominator": self.lambda_denominator,
            "groupCap": self.group_cap,
            "simplexBudget": self.simplex_budget,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def cache_path(self) -> Path:
        return Path(self.out_dir) / "cache" / self.content_hash() / "system.json"


class Bundle:
    """Everything derived from one RunConfig, built lazily."""

    def __init__(self, config: RunConfig):
        self.config = config

    @cached_property
    def system(self) -> CoxeterSystem:
        cfg = self.config
        if cfg.cache:
            cached = _load_system_cache(cfg)
            if cached is not None:
                return cached
        system = CoxeterSystem(cfg.diagram(), swap_classes=cfg.swap_classes,
                               group_cap=cfg.group_cap)
        if cfg.cache:
            _write_system_cache(cfg, system)
        return system

    @cached_property
    def ordered(self) -> OrderedRoots:
        return ordered_roots(self.system)

    @cached_property
    def ncp(self) -> NcpLattice:
        return build_ncp(self.system)

    @cached_property
    def root_complex(self) -> SimplicialComplex:
        return build_root_complex(self.system, self.ordered)

    @cached_property
    def ncp_order_complex(self) -> SimplicialComplex:
        proper = self.ncp.proper_positions()
        return order_complex(
            len(proper), lambda i, j: self.ncp.leq[proper[i]][proper[j]])

    @cached_property
    def ncp_betti(self) -> dict[int, int]:
        return betti_numbers(self.ncp_order_complex, self.config.simplex_budget)

    @cached_property
    def rays(self) -> list:
        return enumerate_rays(self.system)

    @cached_property
    def separation(self) -> Fraction:
        return ray_separation_bound(self.system, self.config.lambda_denominator)

    @cached_property
    def generic(self) -> GenericVector:
        return generic_vector(self.system, self.ordered.tau, self.separation,
                              self.rays)

    @cached_property
    def chamber_list(self) -> list:
        return chambers(self.system)

    @cached_property
    def bounded_flags(self) -> list[bool]:
        return bounded_slice(self.chamber_list, self.generic.vector)

    @cached_property
    def lattice(self) -> list[embed.Flat]:
        # looked up on its module at call time, like the other stages
        return embed.intersection_lattice(self.system)

    @cached_property
    def vertex_complex(self) -> VertexComplex:
        return vertex_complex(self.system, self.ordered, self.root_complex)

    @cached_property
    def embedding(self) -> EmbeddingReport:
        return embedding_report(self.system, self.vertex_complex,
                                self.chamber_list, self.bounded_flags)

    @cached_property
    def basis_cycles(self) -> list:
        return facet_boundary_cycles(self.system, self.ordered,
                                     self.root_complex, self.ncp)


def build(config: RunConfig) -> Bundle:
    return Bundle(config)


# ---------------------------------------------------------------------------
# system cache
# ---------------------------------------------------------------------------

def _write_system_cache(config: RunConfig, system: CoxeterSystem) -> None:
    path = config.cache_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CACHE_VERSION,
        "config": json.loads(config.canonical_json()),
        "field": system.field.describe(),
        "h": system.h,
        "simpleRoots": [serialize.vector(r) for r in system.simple_roots],
        "lengths": system.lengths,
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _load_system_cache(config: RunConfig) -> Optional[CoxeterSystem]:
    """The cached system, or None when there is no usable cache file: a
    missing, unreadable, stale or malformed one is rebuilt by the caller."""
    path = config.cache_path()
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
            return None
        return _system_from_cache(config, payload)
    except (ValueError, ZeroDivisionError, OSError):
        return None


def _is_int(x) -> bool:
    return type(x) is int


def _is_list(x, length: Optional[int] = None) -> bool:
    return isinstance(x, list) and (length is None or len(x) == length)


def _system_from_cache(config: RunConfig, payload: dict) -> Optional[CoxeterSystem]:
    """Rebuild the system from the cached field, simple roots and lengths
    through the same table-building code as a fresh build.  None if a field
    is missing or has the wrong type, or if the cached h differs; roots that
    fail the Gram identities or a lengths list of the wrong size raise
    ValueError."""
    diagram = config.diagram()
    n = diagram.rank
    desc, h = payload.get("field"), payload.get("h")
    roots, lengths = payload.get("simpleRoots"), payload.get("lengths")
    if not (isinstance(desc, dict) and isinstance(desc.get("name"), str)
            and _is_list(desc.get("minimalPolynomial"))
            and all(_is_int(c) for c in desc["minimalPolynomial"])
            and _is_int(h) and _is_list(lengths)
            and all(_is_int(x) and 0 <= x <= n for x in lengths)
            and _is_list(roots, n) and all(_is_list(r, n) for r in roots)):
        return None
    field = catalog_field_by_name(desc["name"], desc["minimalPolynomial"])
    if field is None or not all(_is_list(x, field.degree)
                                and all(isinstance(q, str) for q in x)
                                for r in roots for x in r):
        return None
    system = CoxeterSystem.from_realization(
        diagram, config.swap_classes, field,
        [serialize.vector_from(field, r) for r in roots],
        group_cap=config.group_cap, lengths=lengths)
    return system if system.h == h else None
