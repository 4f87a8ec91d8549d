"""Sigma-SPL: loop-level intermediate representation and loop merging."""

from .index_map import (
    AffineForm,
    diag_values,
    invert_table,
    recover_affine,
    source_table,
)
from .loops import BlockLoop, SigmaProgram, SigmaValidationError, Stage
from .lower import LoweringError, is_diag_stage, is_perm_stage, lower
from .normalize import normalize_for_lowering

__all__ = [
    "AffineForm",
    "BlockLoop",
    "LoweringError",
    "SigmaProgram",
    "SigmaValidationError",
    "Stage",
    "diag_values",
    "invert_table",
    "is_diag_stage",
    "is_perm_stage",
    "lower",
    "normalize_for_lowering",
    "recover_affine",
    "source_table",
]
