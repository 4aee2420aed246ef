"""Exact symmetric functions in the Schur basis and the universal
character rings of the classical groups.

The Schur ring carries its full Hopf structure (product, skew, coproduct,
counit, antipode); the GL/O/Sp character rings are built on top of the four
Littlewood series, with branching rules, Newell-Littlewood tensor products
and exact evaluation at eigenvalue lists.
"""

from .char_rings import (
    Basis,
    CharElement,
    CharTensorElement,
    branch_gl_to_o,
    branch_gl_to_sp,
    char_antipode,
    char_coproduct,
    char_counit,
    char_multiply,
    convert,
    tensor_product,
    tensor_product_generic,
)
from .errors import (
    BasisMismatchError,
    DegreeOverflowError,
    NotInvertibleError,
    PartitionError,
    SchurHopfError,
    SingularDenominatorError,
    StableRangeError,
    UnsupportedGroupError,
    WeightLimitError,
)
from .evaluate import (
    EigenvalueSpec,
    GaussianRational,
    eval_character,
    eval_schur_bialternant,
    eval_schur_tableaux,
    verify_cauchy,
)
from .lr import (
    kernel_name,
    lr_coefficient,
    lr_expand_product,
    lr_expand_skew,
    product_expansion,
    skew_expansion,
)
from .partition import (
    Partition,
    format_partition,
    parse_partition,
    partitions_of,
    partitions_up_to,
    subpartitions,
)
from .schur_ring import SchurElement, TensorElement
from .series import (
    SchurSeries,
    delta_double_prime,
    littlewood_series,
    series_inverse,
    series_product,
    skew_by_series,
    unit_series,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BasisMismatchError",
    "CharElement",
    "CharTensorElement",
    "DegreeOverflowError",
    "EigenvalueSpec",
    "GaussianRational",
    "NotInvertibleError",
    "Partition",
    "PartitionError",
    "SchurElement",
    "SchurHopfError",
    "SchurSeries",
    "SingularDenominatorError",
    "StableRangeError",
    "TensorElement",
    "UnsupportedGroupError",
    "WeightLimitError",
    "branch_gl_to_o",
    "branch_gl_to_sp",
    "char_antipode",
    "char_coproduct",
    "char_counit",
    "char_multiply",
    "convert",
    "delta_double_prime",
    "eval_character",
    "eval_schur_bialternant",
    "eval_schur_tableaux",
    "format_partition",
    "kernel_name",
    "littlewood_series",
    "lr_coefficient",
    "lr_expand_product",
    "lr_expand_skew",
    "parse_partition",
    "partitions_of",
    "partitions_up_to",
    "product_expansion",
    "series_inverse",
    "series_product",
    "skew_by_series",
    "skew_expansion",
    "subpartitions",
    "tensor_product",
    "tensor_product_generic",
    "unit_series",
    "verify_cauchy",
    "__version__",
]
