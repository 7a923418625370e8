"""Exact cubical homotopy limits and fracture diagrams over arithmetic sorts.

Bounded complexes of finitely generated free modules carry symbolic
coefficient sorts (Z, the P-local integers, Q, and the p-completed
rings); localization functors are sort tensor tables. On top of that
the package computes homotopy limits of finite poset diagrams, total
fibers of cubes, the inductive fracture cube with its exact residue
verification, and the object-level category of fracture diagrams with
its splitting combinatorics.
"""

from .exact_linalg import (
    AbelianInvariants,
    ExactMatrix,
    InputError,
    integer_homology_at,
    kernel_basis,
    rank_over_field,
)
from .posets import (
    FinitePoset,
    PosetMap,
    certify_initial,
    comma_poset,
    is_dismantlable,
    pcubelim_index_map,
    reduced_homology,
    subset_poset,
)
from .sorted_complex import (
    LOCALIZE,
    RATIONALIZE,
    ComplexMap,
    Q,
    Qp,
    Sort,
    SortedComplex,
    SortedMap,
    SortedModule,
    Z,
    ZLOC,
    Zp,
    apply_localization,
    canonical_unit,
    complete,
    direct_sum,
    homology_p_local,
    is_acyclic,
    validate,
)
from .holim import (
    PosetDiagram,
    adjunction_check,
    cone,
    hofib,
    homotopy_limit,
    initial_corner_cube,
    is_cartesian,
    is_quasi_iso,
    limit_extended_cube,
    punctured_limit_recursive,
    strict_limit,
    total_fiber,
    total_fiber_iterated,
)
from .fracture import (
    LocalizationFamily,
    build_fracture_cube,
    comparison_map,
    e_localize,
    localization_collapse_check,
    verify_fracture,
)
from .cube_categories import (
    FractureObject,
    GeneratorData,
    anchor_split,
    anchored_supersets,
    build_from_generators,
    diagram_functor,
    fracture_diagram,
    fracture_limit,
    gap_subsets,
    glue_fracture_object,
    roundtrip_check,
    split_fracture_object,
    validate_fracture_object,
)

__version__ = "0.1.0"
