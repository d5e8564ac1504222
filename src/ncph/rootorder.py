"""The total order on positive roots induced by the chosen rotation.

Starting from the bipartitely ordered simple roots a_1..a_n with reflections
r_1..r_n, the sequence rho_i = r_1 ... r_(i-1) a_i (indices cyclic mod n)
enumerates each positive root exactly once for i = 1..nh/2, and the last n
entries multiply back to the rotation c.  Everything is validated on
construction; a failure here means the upstream bipartite data is broken.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import CoxeterSystem, _compose
from .linalg import Vector


class RootOrderError(ValueError):
    """The computed sequence is not a valid enumeration of positive roots."""


@dataclass
class OrderedRoots:
    """Positive roots rho_1..rho_(nh/2) in construction order (0-based lists)."""

    system: CoxeterSystem
    roots: list[Vector]
    reflection_index: list[int]   # group index of the reflection of roots[i]

    @property
    def count(self) -> int:
        return len(self.roots)

    @property
    def tau(self) -> list[Vector]:
        """The last n roots, the seed of the generic direction."""
        return self.roots[-self.system.rank:]

    def tau_reflections(self) -> list[int]:
        return self.reflection_index[-self.system.rank:]


def ordered_roots(system: CoxeterSystem) -> OrderedRoots:
    n = system.rank
    total = n * system.h // 2
    # root ids over a whole period; the prefix r_1 ... r_i is a root
    # permutation, so rho_(i+1) = r_1 ... r_i a_(i+1) is read off it
    prefix = tuple(range(len(system.roots)))
    ids: list[int] = []
    for i in range(2 * total):
        ids.append(prefix[i % n])
        prefix = _compose(prefix, system.simple_perms[i % n])
    roots = [system.roots[k] for k in ids[:total]]

    # distinct ids that make up the positive system: every root is positive
    position: dict[int, int] = {}
    for i, k in enumerate(ids[:total]):
        if k in position:
            raise RootOrderError(f"duplicate root at positions "
                                 f"{position[k] + 1} and {i + 1}")
        position[k] = i

    positive_system = {system.root_id[root] for _, root in system.reflections}
    if position.keys() != positive_system:
        raise RootOrderError("sequence does not enumerate the positive system")

    # sanity: continuing the recursion for another half period produces the
    # negative system.  The stronger index-by-index identity rho_(i+nh/2) =
    # -rho_i holds exactly when c^(h/2) = -I (e.g. false in type A3, where
    # the longest element is not central), so it is only checked then;
    # c^(h/2) = -I exactly when it sends every root to its negative.
    negatives = [system.negative[k] for k in ids[:total]]
    if set(ids[total:]) != set(negatives):
        raise RootOrderError("second half period is not the negative system")
    if system.h % 2 == 0:
        c = system.perms[system.c_index]
        power = tuple(range(len(system.roots)))
        for _ in range(system.h // 2):
            power = _compose(power, c)
        if list(power) == system.negative and ids[total:] != negatives:
            raise RootOrderError("half period does not negate despite central -I")

    reflection_index = [system.reflection_of[k] for k in ids[:total]]

    # c fixes only 0, so the last n roots, whose reflections multiply to c,
    # are linearly independent
    product = system.identity
    for rho in roots[-n:]:  # r(tau_n) ... r(tau_1) applied right-to-left
        product = system.reflection_matrix(rho) * product
    if product != system.coxeter_element:
        raise RootOrderError("the last n reflections do not multiply to c")

    return OrderedRoots(system, roots, reflection_index)
