"""Exact computations for arrangements of divisors on elliptic-curve products.

The package computes the layer poset of an arrangement, the bigraded model
of its complement, page-3 cohomology with torus-weight refinement, the
symmetric-group decomposition in the diagonal case, and the 1-formality
status of graphic arrangements, all in exact rational arithmetic.
"""

from .arrangement import (Arrangement, ArrangementError, Layer, LayerPoset,
                          build_poset, circuits, components_of,
                          independent_sets, is_essential, is_unimodular,
                          nbc_sets, poset_isomorphic)
from .cohomology import (BettiTable, betti_tables, essentialize, full_model,
                         page2_table, page3_table, tensor_with_curve,
                         verify_first_column, verify_vanishing)
from .model import BigradedDGA, ModelError, TensorModel, hodge_weight

__all__ = [
    "Arrangement", "ArrangementError", "Layer", "LayerPoset", "BettiTable",
    "BigradedDGA", "ModelError", "TensorModel", "betti_tables",
    "build_poset", "circuits", "components_of", "essentialize",
    "full_model", "hodge_weight", "independent_sets", "is_essential",
    "is_unimodular", "nbc_sets", "page2_table", "page3_table",
    "poset_isomorphic", "tensor_with_curve", "verify_first_column",
    "verify_vanishing",
]

__version__ = "0.1.0"
