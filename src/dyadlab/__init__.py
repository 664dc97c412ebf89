"""Exact dyadic Haar analysis on finite product grids.

Core objects: an exact scalar ring closed under Haar arithmetic, dyadic
cubes/rectangles and product grids, step functions with exact Haar
analysis and synthesis, dyadic shift operators, multi-parameter
paraproducts with product-BMO estimation, iterated commutators with their
exact shift/paraproduct decomposition, and a floating-point lab for
discrete Riesz multipliers.
"""

from .scalar import Scalar, SQRT2, ZERO, ONE, sqrt2_pow
from .grid import (
    DyadicCube,
    DyadicRectangle,
    GridSpec,
    enumerate_rectangles,
    strict_signatures,
    all_ones,
    is_strict,
    sig_xnor,
    unit_cube,
)
from .stepfn import StepFunction
from .haar import (
    HaarExpansion,
    analyze,
    synthesize,
    haar_function,
    haar_coefficient,
    square_function_sq,
    haar_basis_keys,
    random_haar_function,
)
from .shift import (
    ShiftMap,
    TensorShift,
    tensor_apply_counting,
    matrix_in_haar_basis,
)
from .paraproduct import (
    ParaproductSpec,
    apply_paraproduct,
    BmoEstimate,
    bmo_norm,
    random_signs,
)
from .commutator import (
    CaseLabel,
    case_classify,
    case_evaluate,
    one_parameter_bracket,
    commutator_apply,
    decompose,
    Decomposition,
    DecompositionTerm,
    verify_decomposition,
    commutator_matrix,
    operator_norm,
    norm_ratio_experiment,
    single_haar_symbol,
)
from .errors import CapExceededError

__version__ = "0.1.0"
