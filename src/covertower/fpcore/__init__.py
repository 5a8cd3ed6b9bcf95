"""Finitely presented groups, homology ranks, and permutation machinery."""

from .words import (
    Presentation,
    cyclic_reduce,
    format_presentation,
    free_reduce,
    invert_word,
    parse_presentation,
    validate_word,
    word_power,
)
from .snf import AbelianInvariants, abelianization, smith_invariants
from .sparse import SparseMatModP, rank_dense_mod_p, sparse_rank_mod_p
from .perms import (
    Permutation,
    group_order_equals,
    orbit_and_transversal,
    schreier_sims_order,
    transversal_word,
)
from .rewriting import abelianized_rewriting_matrix, betti_proxy_cover

__all__ = [
    "AbelianInvariants",
    "Permutation",
    "Presentation",
    "SparseMatModP",
    "abelianization",
    "abelianized_rewriting_matrix",
    "betti_proxy_cover",
    "cyclic_reduce",
    "format_presentation",
    "free_reduce",
    "group_order_equals",
    "invert_word",
    "orbit_and_transversal",
    "parse_presentation",
    "rank_dense_mod_p",
    "schreier_sims_order",
    "smith_invariants",
    "sparse_rank_mod_p",
    "transversal_word",
    "validate_word",
    "word_power",
]
