"""Silting-theory toolkit for finite-dimensional quiver algebras.

The package classifies 2-term silting complexes and silting modules of a
finite-dimensional algebra ``kQ/I`` over a prime field, enumerates the
exchange (= Hasse) quiver of the silting order by downward mutation, and
assembles torsion-class Hasse diagrams for the built-in one-dimensional
order families.
"""

from .algebra import (
    AlgebraBuildError,
    AlgebraPresentation,
    FiniteDimAlgebra,
    Quiver,
    build_algebra,
    presentation,
    projective_module,
    simple_module,
)
from .exactmat import DEFAULT_PRIME
from .explorer import ExchangeQuiver, ExploreLimits, explore, hasse_check
from .orders import (
    assemble_tors_hasse,
    auslander_bass_v_reduction,
    bass_v_reduction,
    classify_sincere,
    cyclic_nakayama,
    hereditary_reduction,
    poset_isomorphic,
    triangular_example_reduction,
    weak_order_hasse,
)
from .repmod import Rep, RepMap, hom_basis, is_isomorphic
from .silting import Registry, SiltingPair, SiltingWorkspace
from .twoterm import TwoTermComplex, g_vector, is_presilting

__version__ = "0.1.0"

__all__ = [
    "AlgebraBuildError", "AlgebraPresentation", "DEFAULT_PRIME",
    "ExchangeQuiver", "ExploreLimits", "FiniteDimAlgebra", "Quiver",
    "Registry", "Rep", "RepMap", "SiltingPair", "SiltingWorkspace",
    "TwoTermComplex", "assemble_tors_hasse", "auslander_bass_v_reduction",
    "bass_v_reduction", "build_algebra", "classify_sincere",
    "cyclic_nakayama", "explore", "g_vector", "hasse_check",
    "hereditary_reduction", "hom_basis", "is_isomorphic", "is_presilting",
    "poset_isomorphic", "presentation", "projective_module", "simple_module",
    "triangular_example_reduction", "weak_order_hasse",
]
