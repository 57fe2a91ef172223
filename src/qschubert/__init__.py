"""Exact Schubert calculus on Grassmannians.

Classical and quantum products, Gromov-Witten invariants, and puzzle
counting for the type A Grassmannian G(m, N), the Lagrangian
Grassmannian LG(n, 2n), and the maximal orthogonal Grassmannian
OG(n+1, 2n+2), all in exact integer arithmetic.

Importing the package loads none of its modules.  Each name of
``__all__``, and each module by its name, is imported the first time it
is read (a PEP 562 module ``__getattr__``), so a command-line call pays
only for the modules its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the module that defines each public name
_OWNERS = {
    "combinat": ("LabelString", "Partition", "conjugate", "from_01_string",
                 "grassmann_permutation", "hat_map", "jd_string", "partition",
                 "rect_dual", "remove_columns", "skew_component_stats", "strict_dual",
                 "string012_to_permutation", "to_01_string"),
    "isotropic": ("IsoQHElement", "duality_check", "gw_lg", "gw_og",
                  "line_number_check_lg", "presentation_report_isotropic",
                  "quantum_pieri_lg", "quantum_pieri_og", "quantum_product_lg",
                  "quantum_product_og"),
    "puzzle": ("count_puzzles_1step", "count_puzzles_2step"),
    "qpoly": ("EPoly", "expand_in_qtilde", "ptilde_structure", "qtilde_epoly",
              "qtilde_pieri", "qtilde_structure"),
    "ring": ("ContractViolation", "Report"),
    "typea": ("QHElement", "SpecialMonomial", "dims", "gw_a", "gw_a_puzzle",
              "giambelli_monomials", "presentation_report_a", "quantum_pieri_a",
              "quantum_product_a"),
}
_MODULES = ("cli", "combinat", "isotropic", "puzzle", "qpoly", "ring", "typea", "verify")
_OWNER = {name: module for module, names in _OWNERS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import the module that defines a public name, or the module itself,
    and bind the result here so the next read is a plain lookup."""
    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _MODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_MODULES))
