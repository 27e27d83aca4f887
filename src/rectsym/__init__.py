"""Exact computation of Littlewood-Richardson, Kronecker, plethysm and
Kostka-Foulkes coefficients, rectangle-symmetry verification, and
symmetry-based weight reduction."""

from .coefficients import (
    kronecker_coefficient,
    kronecker_oracle,
    lr_coefficient,
    lr_coefficient_oracle,
    plethysm_coefficient,
    plethysm_oracle,
)
from .hall_littlewood import (
    charge,
    hl_poly,
    kostka_foulkes,
    kostka_foulkes_oracle,
)
from .partitions import (
    complement_partition,
    conjugate,
    count_ssyt,
    fits_in_box,
    format_partition,
    parse_partition,
    partitions_of,
    to_partition,
    translated_partition,
)
from .polyring import LaurentPoly, TPoly
from .powersum import (
    CharCache,
    char_row,
    class_sizes,
    zee,
)
from .schur import (
    schur_coefficients,
    schur_poly,
    schur_poly_of_partition,
)
from .symmetries import (
    RULE_NAMES,
    Outcome,
    PreconditionViolated,
    ReductionReport,
    RuleReport,
    SweepBounds,
    SweepContext,
    apply_rule,
    bench_reduction,
    check_reduction,
    coefficient_of,
    reduce_kronecker,
    reduce_plethysm,
    tableau_ratio,
    verify_all,
    verify_rule,
)

__version__ = "0.1.0"
