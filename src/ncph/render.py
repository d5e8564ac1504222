"""Rank-3 picture: stereographic projection of the arrangement sphere.

Projects from the pole opposite the generic direction onto the tangent
plane at the generic direction, so the open hemisphere where the slice is
bounded lands inside a disk.  Reflection planes appear as arcs, bounded
chambers as shaded spherical triangles, and the transformed-root facets as
bold triangle boundaries with their vertices labeled by root position
(1-based).

Floating point is used here for display coordinates only; every decision
feeding the picture (which chambers are bounded, which facets exist) was
made upstream in exact arithmetic.  Exact vectors are in simple-root
coordinates; the picture places them in R^3 by a float Cholesky factor L
of the Gram matrix (L L^T = B, row i the simple root a_i), so the roots of
the first bipartite class are the first unit vectors.  Each distinct ray
or vertex becomes a unit float vector once, and each arc's angle and sine
are taken once, but every float operation, in its order, is that of the
plain per-point formulas (slerp, then projection): tests pin the bytes of
the pictures, and hoisting work out of a loop must not move a point.  Three-term dot
products are written out: 0 + x == x for every float, so they round as
the sums from 0 did, and a zero's sign reaches only 500 + SCALE * x, the
CUTOFF test or acos, which treat both zeros alike.
"""

from __future__ import annotations

import math

from .pipeline import Bundle

VIEW = 1000.0
SCALE = VIEW / 4.4          # hemisphere disk has radius 2
CUTOFF = -0.15              # drop sphere points too close to the pole
ARC_STEPS = 192
# (cos t, sin t) at the ARC_STEPS + 1 sample angles of a great circle
_CIRCLE = tuple((math.cos(t), math.sin(t))
                for t in (2 * math.pi * i / ARC_STEPS for i in range(ARC_STEPS + 1)))


def _unit(v):
    norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return (v[0] / norm, v[1] / norm, v[2] / norm)


def _frame(gram):
    """The rows of the float Cholesky factor L of the Gram matrix."""
    b = [[float(x) for x in row] for row in gram.rows]
    low = [[0.0] * len(b) for _ in b]
    for i, row in enumerate(b):
        for j in range(i + 1):
            acc = row[j] - sum(low[i][k] * low[j][k] for k in range(j))
            low[i][j] = math.sqrt(acc) if i == j else acc / low[j][j]
    return low


def _funit(frame, vector):
    """The exact vector, in simple-root coordinates, as a unit float vector
    of R^3."""
    x = [float(c) for c in vector]
    return _unit([sum(xi * row[j] for xi, row in zip(x, frame))
                  for j in range(3)])


def _basis_perp(v):
    axis = (1.0, 0.0, 0.0) if abs(v[0]) < 0.9 else (0.0, 1.0, 0.0)
    b1 = _unit(_cross(v, axis))
    b2 = _cross(v, b1)
    return b1, b2


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _projector(v):
    """Stereographic image of a unit vector, in pixel coordinates."""
    v0, v1, v2 = v
    w0, w1, w2 = 2.0 * v0, 2.0 * v1, 2.0 * v2
    (b10, b11, b12), (b20, b21, b22) = _basis_perp(v)
    mid = VIEW / 2

    def to_plane(x):
        x0, x1, x2 = x
        t = 2.0 / (1.0 + (x0 * v0 + x1 * v1 + x2 * v2))
        u0, u1, u2 = t * (x0 + v0) - w0, t * (x1 + v1) - w1, t * (x2 + v2) - w2
        return (mid + SCALE * (u0 * b10 + u1 * b11 + u2 * b12),
                mid - SCALE * (u0 * b20 + u1 * b21 + u2 * b22))
    return to_plane


def _path(points, close=False):
    cmds = [f"{'M' if i == 0 else 'L'}{x:.3f},{y:.3f}"
            for i, (x, y) in enumerate(points)]
    return " ".join(cmds) + (" Z" if close else "")


def _triangle(to_plane, corners, steps=48):
    """Closed path along the great-circle arcs between consecutive unit
    corners, steps + 1 slerp points per arc."""
    points = []
    for i, a in enumerate(corners):
        b = corners[(i + 1) % 3]
        a0, a1, a2 = a
        b0, b1, b2 = b
        w = math.acos(max(-1.0, min(1.0, a0 * b0 + a1 * b1 + a2 * b2)))
        if w < 1e-9:
            points.extend([to_plane(a)] * (steps + 1))
            continue
        s = math.sin(w)
        for k in range(steps + 1):
            t = k / steps
            p, q = math.sin((1 - t) * w), math.sin(t * w)
            points.append(to_plane(((p * a0 + q * b0) / s, (p * a1 + q * b1) / s,
                                    (p * a2 + q * b2) / s)))
    return _path(points, close=True)


def render_svg(bundle: Bundle) -> str:
    system = bundle.system
    if system.rank != 3:
        raise ValueError("rendering is defined for rank 3 only")
    frame = _frame(system.gram)
    v = _funit(frame, bundle.generic)
    to_plane = _projector(v)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW:.0f} {VIEW:.0f}">',
        "<style>"
        ".plane{fill:none;stroke:#9aa0a6;stroke-width:1.2}"
        ".region{fill:#f6d8a0;stroke:none;fill-opacity:0.85}"
        ".facet{fill:none;stroke:#111111;stroke-width:5;stroke-linejoin:round}"
        ".vertex-label{font:28px sans-serif;fill:#b03030;text-anchor:middle}"
        "</style>",
        f'<rect width="{VIEW:.0f}" height="{VIEW:.0f}" fill="#ffffff"/>',
    ]

    # shaded bounded-slice chambers (drawn first, under everything)
    table = system.orbit_rays[0]
    rays = {}
    for chamber, bounded in zip(bundle.chamber_list, bundle.bounded_flags):
        if not bounded:
            continue
        for k in chamber.ray_ids:
            if k not in rays:
                rays[k] = _funit(frame, table[k])
        corners = [rays[k] for k in chamber.ray_ids]
        parts.append(f'<path class="region" d="{_triangle(to_plane, corners)}"/>')

    # great circles of the reflection planes
    v0, v1, v2 = v
    for _, root in system.reflections:
        (e10, e11, e12), (e20, e21, e22) = _basis_perp(_funit(frame, root))
        run = []
        for c, s in _CIRCLE:
            x = (c * e10 + s * e20, c * e11 + s * e21, c * e12 + s * e22)
            if x[0] * v0 + x[1] * v1 + x[2] * v2 > CUTOFF:
                run.append(to_plane(x))
            elif len(run) > 1:
                parts.append(f'<path class="plane" d="{_path(run)}"/>')
                run = []
            else:
                run = []
        if len(run) > 1:
            parts.append(f'<path class="plane" d="{_path(run)}"/>')

    # bold facet boundaries of the transformed-root complex
    vertices = [_funit(frame, x) for x in bundle.vertex_complex.vertices]
    for facet in bundle.vertex_complex.complex.facets:
        corners = [vertices[i] for i in facet]
        parts.append(f'<path class="facet" d="{_triangle(to_plane, corners)}"/>')

    # vertex labels (1-based root positions)
    for i, vertex in enumerate(vertices):
        px, py = to_plane(vertex)
        parts.append(f'<text class="vertex-label" x="{px:.3f}" '
                     f'y="{py - 10:.3f}">{i + 1}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
