"""Exact computation of Bredon homology and proper-action K-theory data for
finitely presented groups with cyclic torsion structure."""

from .bredon import (
    BredonResult,
    KTheoryResult,
    TorsionDatum,
    bredon_full,
    detect_asphericity,
    ktheory,
    one_relator_product_homology,
    torsion_data,
)
from .finite_oracle import verify_cyclic_resolution
from .fox import FreeRingElement, total_derivative
from .free_group import Alphabet, Root, Word, are_conjugate
from .hempel import (
    HempelContext,
    HempelReport,
    HnnPresentation,
    X1Letter,
    build_hnn,
    check_hempel,
    hempel_context,
    hnn_roundtrip_check,
    rewrite_in_normal_closure_basis,
)
from .int_linalg import (
    AbelianGroupInvariants,
    IntMatrix,
    cokernel_invariants,
    homology_invariants,
    invariant_factors,
    rank,
)
from .presentation import (
    Presentation,
    document_text,
    exponent_matrix,
    parse,
    parse_word,
    presentation_text,
)

__version__ = "0.1.0"
