"""The in-process memo policy: every memo is an ``lru_cache``, and one
``clear_caches`` empties all of them."""

import sys

from qschubert import cli, isotropic, puzzle, qpoly, ring, typea  # noqa: F401  (load every module)


def _lru_caches():
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "qschubert":
            for value in vars(module).values():
                if hasattr(value, "cache_info"):
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def test_clear_caches_empties_every_lru_cache():
    typea.quantum_product_a((2, 1), (2, 1), 2, 3)
    typea.product_second_folded((2, 1), (2, 1), 2, 3)
    typea.gw_a_puzzle((2, 1), (2, 1), (3, 2), 1, 2, 3)
    isotropic.quantum_product_lg((2,), (2, 1), 3, cross_check=True)
    isotropic.quantum_product_og((2,), (2, 1), 3, cross_check=True)
    qpoly.qtilde_pfaffian_first_row((3, 2, 1), 3)
    caches = _lru_caches()
    assert {"qschubert.puzzle._row_fillings", "qschubert.ring.fold",
            "qschubert.typea._det_terms", "qschubert.typea._laplace_product",
            "qschubert.typea._pieri_table",
            "qschubert.isotropic._product_og", "qschubert.qpoly._transition",
            "qschubert.qpoly._pfaffian_first_row"} <= set(caches)
    assert {name for name, fn in caches.items() if not fn.cache_info().currsize} == set()
    typea.clear_caches()
    assert {name for name, fn in caches.items() if fn.cache_info().currsize} == set()


def test_every_module_shares_one_clear_caches():
    assert typea.clear_caches is puzzle.clear_caches is ring.clear_caches

