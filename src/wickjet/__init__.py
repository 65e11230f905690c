"""wickjet: exact-arithmetic Wick star products, formal Toeplitz operators
on jets of Kahler potentials, and a CP^1 closed-form cross-check oracle."""

from .coefficients import ComplexRational
from .errors import (
    DegreeWindowError,
    DimensionMismatch,
    PreconditionError,
    SolveError,
    TruncationMismatch,
    WickjetError,
)
from .jets import (
    PotentialJets,
    apply_normalization,
    flat_potential,
    fubini_study_potential,
    k_normalize,
    random_real_analytic_potential,
    volume_log_jets,
    weight_series,
)
from .integrals import (
    WeightSeries,
    formal_integral,
    inner_product,
    toeplitz_symbol,
)
from .btrep import (
    BTContext,
    bt_star_eval,
    rep_act,
    vacuum_reduce,
)
from .cp1 import (
    FactorialRational,
    RationalSymbol,
    ToeplitzMatrix,
    composition_residual,
    cp1_inner,
    cp1_toeplitz,
    fs_ratio_symbol,
    mobius_pullback,
    symbol_jets,
)
from .series import WickSeries, total_degree
from .suites import SUITES, SuiteReport
from .wick import (
    classical_exp,
    fock_act,
    star_exp,
    star_inverse,
    star_log,
    wick_star,
)

__all__ = [
    "ComplexRational",
    "WickSeries",
    "total_degree",
    "wick_star",
    "fock_act",
    "classical_exp",
    "star_exp",
    "star_log",
    "star_inverse",
    "WeightSeries",
    "formal_integral",
    "inner_product",
    "toeplitz_symbol",
    "PotentialJets",
    "k_normalize",
    "apply_normalization",
    "volume_log_jets",
    "weight_series",
    "flat_potential",
    "fubini_study_potential",
    "random_real_analytic_potential",
    "BTContext",
    "bt_star_eval",
    "rep_act",
    "vacuum_reduce",
    "FactorialRational",
    "RationalSymbol",
    "ToeplitzMatrix",
    "cp1_inner",
    "cp1_toeplitz",
    "fs_ratio_symbol",
    "symbol_jets",
    "mobius_pullback",
    "composition_residual",
    "SuiteReport",
    "SUITES",
    "WickjetError",
    "DimensionMismatch",
    "TruncationMismatch",
    "DegreeWindowError",
    "PreconditionError",
    "SolveError",
]

__version__ = "0.1.0"
