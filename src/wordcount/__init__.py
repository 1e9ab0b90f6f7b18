"""Exact solution counts of generalized commutator word equations in
finite groups, cross-verified along three independent paths: brute-force
enumeration, character-theoretic formulas over exact cyclotomic integers,
and closed forms for special group families.

`import wordcount` loads no submodule: each public name, and each module
named in `_EXPORTS`, is imported on first access (PEP 562).  With bytecode
caching off a process compiles every module it imports, so a program pays
only for the modules it uses.
"""

import importlib

_EXPORTS = {
    "chartab": ("CharacterTable", "character_table", "inner_product",
                "inner_product_on"),
    "counting": ("DomainSpec", "is_measure_preserving", "nilpotency_degree",
                 "probability", "zeta_brute", "zeta_element_counts"),
    "cyclotomic": ("Cyclotomic",),
    "errors": ("WordcountError",),
    "formulas": ("CaminaInvariants", "GroupClassReport", "c_wn", "classify",
                 "closed_camina3", "closed_camina_gcp_tower",
                 "closed_gcp_center", "invariants_of",
                 "unique_nonlinear_recursion", "zeta_mixed_theorem21",
                 "zeta_w2_frobenius", "zeta_wn_char"),
    "groups": ("ClassFunction", "GroupTable", "Subgroup", "builtin",
               "conjugacy_classes", "direct_product", "from_cayley_table",
               "from_permutation_generators", "parse_builtin_spec"),
    "isoclinism": ("IsoclinismWitness", "find_isoclinism", "verify_scaling"),
    "words": ("Word", "evaluate", "make_word", "parse", "wn"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
