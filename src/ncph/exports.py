"""JSON export payloads with stable field names and byte-stable encoding.

Scalars are rational-coordinate arrays in the field's power basis; the
field itself is described once in a header block, with the Gram matrix B
of the simple roots (``form``): vectors are in simple-root coordinates,
and u . v = u^T B v.  Root/vertex indices are
1-based (matching the usual numbering of the root sequence and the labels
in the rendered picture); element and chamber ids are 0-based positions in
the listed order.
"""

from __future__ import annotations

from itertools import combinations

from . import serialize
from .serialize import to_json  # noqa: F401  (exports.to_json is public)
from .embed import flat_covers, flat_normals
from .linalg import vec_key
from .pipeline import Bundle


def _header(bundle: Bundle) -> dict:
    return {
        "field": bundle.system.field.describe(),
        "form": serialize.matrix(bundle.system.gram),
        "group": bundle.system.diagram.label,
        "rank": bundle.system.rank,
        "indexBase": 1,
    }


def export_ncp(bundle: Bundle) -> dict:
    ncp = bundle.ncp
    system = bundle.system
    # row i of an element's matrix is coordinate i of its columns, the
    # roots w(a_1), ..., w(a_n): each root is serialized once
    roots = [serialize.vector(r) for r in system.roots]
    elements = [{
        "id": pos,
        "length": ncp.length(pos),
        "matrix": list(zip(*(roots[k] for k in system.keys[w]))),
    } for pos, w in enumerate(ncp.elements)]
    return {
        **_header(bundle),
        "elements": elements,
        "hasse": [[a, b] for a, b in ncp.hasse_edges()],
    }


def export_xc(bundle: Bundle) -> dict:
    xc = bundle.root_complex
    edges = sorted({e for f in xc.facets for e in combinations(f, 2)})
    return {
        **_header(bundle),
        "vertices": [serialize.vector(r) for r in bundle.ordered.roots],
        "edges": [[i + 1, j + 1] for i, j in edges],
        "facets": [[i + 1 for i in f] for f in xc.facets],
    }


def export_lattice(bundle: Bundle) -> dict:
    system = bundle.system
    # by codim, then by the rational coordinates of the canonical normals
    normals = {f: flat_normals(system, f) for f in bundle.lattice}
    flats = sorted(bundle.lattice, key=lambda f: (
        f.codim, tuple(map(vec_key, normals[f]))))
    # strict up-sets as bitsets, grown along the covers from the last flat
    # (covers come later); only the set bits are visited, in ascending order
    covers = flat_covers(flats)
    up = [0] * len(flats)
    for a in reversed(range(len(flats))):
        for b in covers[a]:
            up[a] |= up[b] | 1 << b
    order = []
    for a, bits in enumerate(up):
        while bits:
            low = bits & -bits
            order.append([a, low.bit_length() - 1])
            bits ^= low
    return {
        **_header(bundle),
        "flats": [{
            "id": i,
            "codim": f.codim,
            "normals": [serialize.vector(r) for r in normals[f]],
        } for i, f in enumerate(flats)],
        "order": order,
    }


def export_embed(bundle: Bundle) -> dict:
    report = bundle.embedding
    # the 0/1 incidence, one row per bounded chamber and one column per facet
    rows = {pos: [0] * len(report.facets) for pos in report.bounded_positions}
    for col, members in enumerate(report.columns):
        for pos in members:
            if pos in rows:
                rows[pos][col] = 1
    chamber_rows = [{
        "id": pos,
        "element": chamber.element,
        "boundedSlice": bounded,
    } for pos, (chamber, bounded) in enumerate(
        zip(bundle.chamber_list, bundle.bounded_flags))]
    return {
        **_header(bundle),
        "facets": [[i + 1 for i in f] for f in report.facets],
        "chambers": chamber_rows,
        "boundedChamberIds": list(report.bounded_positions),
        "incidence": list(rows.values()),
        "columnWeights": report.column_weights,
        "rank": report.rank,
        "injective": report.injective,
    }


EXPORTERS = {
    "ncp": export_ncp,
    "xc": export_xc,
    "lattice": export_lattice,
    "embed": export_embed,
}
