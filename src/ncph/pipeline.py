"""Run configuration and the lazily built artifact bundle.

A RunConfig identifies a computation completely; two runs with equal
configs produce byte-identical outputs.  The bundle builds each artifact on
first use.  The system's Coxeter number and reflection lengths can be
cached on disk under the config's key: the first 16 hex digits of the
SHA-256 of its canonical JSON, which the verify report also gives as
``configHash``.  The key is computed by CPython's built-in SHA-256 module,
so no ncph process loads OpenSSL.  A cached system is built by the same
code as a fresh one, with the cached lengths in place of the per-class
trace averages, and must reproduce the cached h; a cache file whose stored
config differs from the run's is rebuilt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Optional

from . import embed
from .arrangement import (DEFAULT_DENOMINATOR_BOUND, chambers, bounded_slice,
                          enumerate_rays, generic_vector,
                          ray_separation_bound)
from .complexes import (DEFAULT_SIMPLEX_BUDGET, NcpLattice, SimplicialComplex,
                        betti_numbers, build_ncp, build_root_complex,
                        facet_boundary_cycles, order_complex,
                        simplex_images)
from .coxeter import (DEFAULT_GROUP_CAP, CoxeterDiagram, CoxeterSystem)
from .embed import EmbeddingReport, VertexComplex, embedding_report, vertex_complex
from .linalg import Vector
from .rootorder import OrderedRoots, ordered_roots
from .serialize import write_json

# the built-in module (_sha2 from 3.12, _sha256 before) loads no OpenSSL,
# which hashlib's sha256 does; hashlib falls back to the same module
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

CACHE_VERSION = 3


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
        return sha256(self.canonical_json().encode()).hexdigest()[:16]

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
    def simplex_images(self) -> dict[tuple, int]:
        return simplex_images(self.system, self.ordered, self.root_complex)

    @cached_property
    def ncp_order_complex(self) -> SimplicialComplex:
        # proper positions 1..top-1 become labels 0..top-2
        top = self.ncp.top
        return order_complex([[b - 1 for b in ups if b != top]
                              for ups in self.ncp.covers[1:top]],
                             self.config.simplex_budget)

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
    def generic(self) -> Vector:
        return generic_vector(self.system, self.ordered.tau, self.separation)

    @cached_property
    def chamber_list(self) -> list:
        return chambers(self.system)

    @cached_property
    def bounded_flags(self) -> list[bool]:
        return bounded_slice(self.system, self.chamber_list, self.generic)

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
        return facet_boundary_cycles(self.system, self.root_complex,
                                     self.ncp, self.simplex_images)


# ---------------------------------------------------------------------------
# system cache
# ---------------------------------------------------------------------------

def _write_system_cache(config: RunConfig, system: CoxeterSystem) -> None:
    path = config.cache_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CACHE_VERSION,
        "config": json.loads(config.canonical_json()),
        "h": system.h,
        "lengths": system.lengths,
    }
    write_json(path, payload)


def _load_system_cache(config: RunConfig) -> Optional[CoxeterSystem]:
    """The cached system, or None when there is no usable cache file: a
    missing, unreadable, stale or malformed one, one with other keys than
    the writer's, or one written for another config, is rebuilt by the
    caller."""
    path = config.cache_path()
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
        if not (isinstance(payload, dict)
                and payload.keys() == {"version", "config", "h", "lengths"}
                and payload["version"] == CACHE_VERSION
                and payload["config"] == json.loads(config.canonical_json())):
            return None
        return _system_from_cache(config, payload)
    except (ValueError, OSError):
        return None


def _system_from_cache(config: RunConfig, payload: dict) -> Optional[CoxeterSystem]:
    """The system built with the cached lengths.  None if h or the lengths
    have the wrong type, if the cached h differs, or unless e, each
    reflection and c have lengths 0, 1 and n; a lengths list of the wrong
    size raises ValueError."""
    diagram = config.diagram()
    h, lengths = payload["h"], payload["lengths"]
    if not (type(h) is int and isinstance(lengths, list)
            and all(type(x) is int and 0 <= x <= diagram.rank
                    for x in lengths)):
        return None
    system = CoxeterSystem(diagram, config.swap_classes,
                           group_cap=config.group_cap, lengths=lengths)
    known = [(system.e_index, 0), (system.c_index, system.rank)] + [
        (t, 1) for t, _ in system.reflections]
    ok = system.h == h and all(lengths[i] == k for i, k in known)
    return system if ok else None
