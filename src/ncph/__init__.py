"""Noncrossing partition lattices of finite reflection groups, exactly.

Builds the interval below a bipartite rotation in absolute order, the flag
complex on the ordered positive roots, an explicit geometric basis for the
homology of the lattice's proper part, a certified generic slice direction
for the reflection arrangement, and the facet-chamber incidence that embeds
the lattice homology into the intersection-lattice homology.  All decisions
are made in exact real algebraic arithmetic.
"""

from .coxeter import (BudgetExceededError, CoxeterDiagram, CoxeterSystem,
                      NotFiniteTypeError, bipartite_order)
from .fields import (FieldError, NumberField, Scalar, rationals,
                     quadratic_field, cosine_field)
from .linalg import Matrix, dot
from .pipeline import Bundle, RunConfig
from .rootorder import OrderedRoots, RootOrderError, ordered_roots

__version__ = "0.1.0"

__all__ = [
    "Bundle", "BudgetExceededError", "CoxeterDiagram", "CoxeterSystem",
    "FieldError", "Matrix", "NotFiniteTypeError", "NumberField",
    "OrderedRoots", "RootOrderError", "RunConfig",
    "Scalar", "bipartite_order", "cosine_field",
    "dot", "ordered_roots", "quadratic_field", "rationals",
]
