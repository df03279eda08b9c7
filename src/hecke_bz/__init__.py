"""Exact and numerical machinery for Hecke-algebra derivatives.

Layers, bottom to top: exact scalars (rational functions in q, and
rationals), exact dense linear algebra, symmetric-group combinatorics
and the symmetric-group oracle, the finite Hecke algebra, the
presentation the affine and graded algebras share (relation families and
numeric restriction), the affine Hecke algebra and the graded algebra
with their modules and derivative functors, Speh modules, and the
numeric transport between the graded and affine sides.
"""

from .combinatorics import (
    Permutation,
    hook_dimension,
    min_coset_reps,
    parse_partition,
    partitions,
    standard_tableaux,
    sym_group,
    vertical_strips,
)
from .scalars import QRational, parse_qrational
from .symgroup import decompose_sn
from .finite_hecke import (
    FiniteHeckeElement,
    parse_element,
    poincare_value,
    render_element,
    sign_character,
    sign_idempotent,
    sign_projector,
)
from .affine import (
    AffineElement,
    multiply,
    oracle_apply,
    parse_affine,
    render_affine,
)
from .affine.modules import (
    FinDimAffineModule,
    antispherical_apply,
    antispherical_generator,
    bz_derivative,
    bz_dimension,
    central_block,
    induce,
    leibniz_check,
    one_dimensional_module,
    principal_series,
    verify_relations,
)
from .graded import (
    GradedModule,
    decompose_as_speh,
    g_bz_derivative,
    pieri_verify,
    pin,
    speh_module,
)
from .bridge import (
    bridge_bz_compare,
    fc_value,
    lambda_functor,
    matrix_function,
    theta_spectrum_check,
)

__version__ = "0.1.0"

__all__ = [
    "AffineElement",
    "FinDimAffineModule",
    "FiniteHeckeElement",
    "GradedModule",
    "Permutation",
    "QRational",
    "antispherical_apply",
    "antispherical_generator",
    "bridge_bz_compare",
    "bz_derivative",
    "bz_dimension",
    "central_block",
    "decompose_as_speh",
    "decompose_sn",
    "fc_value",
    "g_bz_derivative",
    "hook_dimension",
    "induce",
    "lambda_functor",
    "leibniz_check",
    "matrix_function",
    "min_coset_reps",
    "multiply",
    "one_dimensional_module",
    "oracle_apply",
    "parse_affine",
    "parse_element",
    "parse_partition",
    "parse_qrational",
    "partitions",
    "pieri_verify",
    "pin",
    "poincare_value",
    "principal_series",
    "render_affine",
    "render_element",
    "sign_character",
    "sign_idempotent",
    "sign_projector",
    "speh_module",
    "standard_tableaux",
    "sym_group",
    "theta_spectrum_check",
    "verify_relations",
    "vertical_strips",
    "__version__",
]
