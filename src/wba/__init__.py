"""Exact computational engine for the walled Brauer algebra.

Constructs the complete system of primitive pairwise orthogonal idempotents by
consecutive evaluation of baxterized factor products, and certifies every
claim (idempotency, orthogonality, completeness, Jucys-Murphy spectra,
Yang-Baxter identities, exponent structure) in exact rational-function
arithmetic over Q(d).
"""

from .diagrams import (
    CompositionResult,
    Shape,
    WalledDiagram,
    all_diagrams,
    compose,
    d_gen,
    d_pair,
    epsilon,
    identity,
    make_diagram,
    s_gen,
    s_pair,
    vertical_flip,
)
from .algebra import (
    AlgebraElement,
    element_from_json,
    element_to_json,
    embed,
    iota,
    jm_element,
)
from .fusion import (
    DEFAULT_H,
    fusion_idempotent,
    fusion_with_minimal_prefactor,
    identity_checks,
    second_fusion_idempotent,
    sym_group_idempotent,
)
from .scalars import DELTA, ONE, ZERO, DeltaScalar, affine, parse_scalar, scalar_str
from .tableaux import (
    Bipartition,
    BratteliGraph,
    Move,
    Partition,
    TripleTableau,
    WalledTableau,
    bratteli,
    diag_len,
    enumerate_bipartitions,
    enumerate_tableaux,
    exponents,
    is_semisimple,
    laplacian,
    parse_tableau,
    tableau_from_contents,
    tableau_from_triple,
    theta,
    triple_tableau,
)

from .verify import (
    CertReport,
    check_proof_lemmas,
    check_system,
    full_report,
    interp_idempotent,
)

__all__ = [name for name in dir() if not name.startswith("_")]
