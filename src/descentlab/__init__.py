"""Exact descent set statistics and the cyclotomic structure of their
generating polynomials, for unsigned and signed permutations."""

import importlib

__version__ = "1.0.0"

# The public names, by the submodule that defines them.  A name is imported
# on first access (PEP 562), so ``import descentlab`` loads no submodule and
# each CLI command loads only the modules it runs.
_EXPORTS = {
    "errors": ("CacheError", "ContractViolationError", "DescentLabError", "ResourceLimitError"),
    "numbers": ("euler_number", "signed_euler_number"),
    "descent": (
        "DescentTable", "beta_table", "brute_force_table", "load_table", "mod_p_prediction",
        "residue_histogram", "rho", "save_table",
    ),
    "qsym": (
        "QSymPoly", "f_boolean", "f_cubical_B", "m_to_l", "odd_fundamental_count",
        "ordered_set_partitions", "product_monomial_singletons",
    ),
    "abcd": (
        "AbPoly", "CdPoly", "MacmahonCheck", "NotInSpanError", "ab_index", "ab_to_cd",
        "cd_to_ab", "macmahon_multiplication_check", "omega", "signed_sum",
    ),
    "cyclo": ("FactorReport", "IntPoly", "cyclotomic", "divides_order", "factor_scan"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
