"""SPL: the matrix formula language underlying the Spiral reproduction.

Public surface of the subpackage: expression constructors (:class:`DFT`,
:class:`I`, :class:`L`, :class:`Twiddle`, tensor/compose/direct-sum
combinators), the shared-memory tagged constructs, the Definition 1 checker
and the pretty printer.
"""

from .algebra import invert, transpose
from .expr import (
    COMPLEX,
    Compose,
    DirectSum,
    Expr,
    SPLError,
    Tensor,
    compose,
    direct_sum,
    tensor,
)
from .matrices import DFT, Diag, DiagFunc, F2, I, L, Perm, Twiddle
from .parallel import LinePerm, ParDirectSum, ParTensor, SMP, smp
from .pprint import format_expr, format_tree
from .properties import (
    CheckResult,
    check_fully_optimized,
    has_smp_tags,
    is_fully_optimized,
    is_load_balanced,
    is_parallel_construct,
    parallel_region_count,
)

__all__ = [
    "COMPLEX",
    "CheckResult",
    "Compose",
    "DFT",
    "Diag",
    "DiagFunc",
    "DirectSum",
    "Expr",
    "F2",
    "I",
    "L",
    "LinePerm",
    "ParDirectSum",
    "ParTensor",
    "Perm",
    "SMP",
    "SPLError",
    "Tensor",
    "Twiddle",
    "invert",
    "check_fully_optimized",
    "compose",
    "direct_sum",
    "format_expr",
    "format_tree",
    "has_smp_tags",
    "is_fully_optimized",
    "is_load_balanced",
    "is_parallel_construct",
    "parallel_region_count",
    "smp",
    "tensor",
    "transpose",
]
