"""The in-process memo policy: every memo is an ``lru_cache``, and one
``clear_caches`` empties all of them."""

import sys

from qschubert import cli, isotropic, puzzle, qpoly, ring, typea  # noqa: F401  (load every module)


def _modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == "qschubert"]


def _lru_caches():
    found = {}
    for module in _modules():
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
    isotropic.presentation_report_isotropic(ring.LG, 2)  # the only reader of _two_row_terms
    caches = _lru_caches()
    assert {"qschubert.puzzle._row_fillings", "qschubert.ring.fold",
            "qschubert.typea._det_terms", "qschubert.typea._laplace_product",
            "qschubert.typea._partition", "qschubert.typea._pieri_table",
            "qschubert.isotropic._product_og", "qschubert.qpoly._transition",
            "qschubert.qpoly._pfaffian_first_row"} <= set(caches)
    assert {name for name, fn in caches.items() if not fn.cache_info().currsize} == set()
    typea.clear_caches()
    assert {name for name, fn in caches.items() if fn.cache_info().currsize} == set()


def test_no_module_binds_one_lru_cache_under_two_names():
    """A second name would list, count and report one memo twice."""
    for module in _modules():
        names = {}
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info"):
                names.setdefault(id(value), []).append(attr)
        assert [attrs for attrs in names.values() if len(attrs) > 1] == [], module.__name__


def test_every_module_shares_one_clear_caches():
    assert typea.clear_caches is puzzle.clear_caches is ring.clear_caches

