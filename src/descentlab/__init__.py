"""Exact descent set statistics and the cyclotomic structure of their
generating polynomials, for unsigned and signed permutations."""

from .errors import (
    CacheError,
    ContractViolationError,
    DescentLabError,
    ResourceLimitError,
)
from .numbers import (
    euler_number,
    multinomial,
    signed_euler_number,
)
from .descent import (
    DescentTable,
    ResidueHistogram,
    alpha,
    alpha_signed,
    beta_table,
    brute_force_table,
    load_table,
    mod_p_prediction,
    residue_histogram,
    rho,
    save_table,
)
from .qsym import (
    QSymPoly,
    f_boolean,
    f_cubical_B,
    m_to_l,
    odd_fundamental_count,
    ordered_set_partitions,
    product_monomial_singletons,
)
from .abcd import (
    AbPoly,
    CdPoly,
    MacmahonCheck,
    NotInSpanError,
    ab_index,
    ab_to_cd,
    cd_to_ab,
    macmahon_multiplication_check,
    omega,
    signed_sum,
)
from .cyclo import (
    FactorReport,
    IntPoly,
    cyclotomic,
    divides_order,
    eval_special,
    factor_scan,
)

__version__ = "1.0.0"

__all__ = [
    "AbPoly",
    "CacheError",
    "CdPoly",
    "ContractViolationError",
    "DescentLabError",
    "DescentTable",
    "FactorReport",
    "IntPoly",
    "MacmahonCheck",
    "NotInSpanError",
    "QSymPoly",
    "ResidueHistogram",
    "ResourceLimitError",
    "ab_index",
    "ab_to_cd",
    "alpha",
    "alpha_signed",
    "beta_table",
    "brute_force_table",
    "cd_to_ab",
    "cyclotomic",
    "divides_order",
    "euler_number",
    "eval_special",
    "f_boolean",
    "f_cubical_B",
    "factor_scan",
    "load_table",
    "m_to_l",
    "macmahon_multiplication_check",
    "mod_p_prediction",
    "multinomial",
    "odd_fundamental_count",
    "omega",
    "ordered_set_partitions",
    "product_monomial_singletons",
    "residue_histogram",
    "rho",
    "save_table",
    "signed_euler_number",
    "signed_sum",
    "__version__",
]
