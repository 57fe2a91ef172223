"""The public interface: exported names, signatures, the validation
every public entry point applies to caller-supplied partitions, and the
names the benchmark harness binds."""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import qschubert
from qschubert import EPoly

EXPORTS = [
    "ContractViolation", "EPoly", "IsoQHElement", "LabelString", "Partition",
    "QHElement", "Report", "SpecialMonomial", "conjugate",
    "count_puzzles_1step", "count_puzzles_2step", "dims", "duality_check",
    "expand_in_qtilde", "from_01_string", "giambelli_monomials",
    "grassmann_permutation", "gw_a", "gw_a_puzzle", "gw_lg", "gw_og",
    "hat_map", "jd_string", "line_number_check_lg", "partition",
    "presentation_report_a", "presentation_report_isotropic",
    "ptilde_structure", "qtilde_epoly", "qtilde_pieri", "qtilde_structure",
    "quantum_pieri_a", "quantum_pieri_lg", "quantum_pieri_og",
    "quantum_product_a", "quantum_product_lg", "quantum_product_og",
    "rect_dual", "remove_columns", "skew_component_stats", "strict_dual",
    "string012_to_permutation", "to_01_string",
]

# parameter lists (names, kinds and defaults, without annotations)
SIGNATURES = {
    "EPoly": "(n, coeffs=None)",
    "EPoly.monomial": "(n, lam, coeff=1)",
    "IsoQHElement": "(flavor, n, coeffs=None)",
    "LabelString": "(symbols, alphabet)",
    "QHElement": "(m, n, coeffs=None)",
    "Report": "(ok, checked=0, failures=<factory>, data=<factory>)",
    "SpecialMonomial": "(sign, factors)",
    "conjugate": "(lam)",
    "count_puzzles_1step": "(nw, ne, s)",
    "count_puzzles_2step": "(nw, ne, s)",
    "dims": "(m, n, d)",
    "duality_check": "(lam, mu, nu, d, n)",
    "expand_in_qtilde": "(f, n)",
    "from_01_string": "(s, m=None)",
    "giambelli_monomials": "(lam, m, n)",
    "grassmann_permutation": "(lam, m, n)",
    "gw_a": "(lam, mu, nu, d, m, n)",
    "gw_a_puzzle": "(lam, mu, nu, d, m, n)",
    "gw_lg": "(lam, mu, nu, d, n)",
    "gw_og": "(lam, mu, nu, d, n)",
    "hat_map": "(lam, n)",
    "jd_string": "(lam, m, n, d)",
    "line_number_check_lg": "(lam, mu, nu, n)",
    "partition": "(parts)",
    "presentation_report_a": "(m, n)",
    "presentation_report_isotropic": "(flavor, n)",
    "ptilde_structure": "(lam, mu, n)",
    "qtilde_epoly": "(lam, n)",
    "qtilde_pieri": "(lam, p, n)",
    "qtilde_structure": "(lam, mu, n)",
    "quantum_pieri_a": "(lam, p, m, n)",
    "quantum_pieri_lg": "(lam, p, n)",
    "quantum_pieri_og": "(lam, p, n)",
    "quantum_product_a": "(lam, mu, m, n)",
    "quantum_product_lg": "(lam, mu, n, cross_check=False)",
    "quantum_product_og": "(lam, mu, n, cross_check=False)",
    "rect_dual": "(lam, m, n)",
    "remove_columns": "(lam, d)",
    "skew_component_stats": "(lam, mu)",
    "strict_dual": "(nu, n)",
    "string012_to_permutation": "(s, a, b)",
    "to_01_string": "(lam, m, n)",
}


def _parameters(obj) -> str:
    sig = inspect.signature(obj)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_exports_unchanged():
    assert qschubert.__all__ == EXPORTS


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_public_signatures_unchanged(name):
    obj = qschubert
    for attr in name.split("."):
        obj = getattr(obj, attr)
    assert _parameters(obj) == SIGNATURES[name]


def test_every_public_function_is_pinned():
    callables = {name for name in EXPORTS if callable(getattr(qschubert, name))}
    # exception classes and type aliases have no signature of their own
    assert callables - set(SIGNATURES) == {"ContractViolation", "Partition"}


# Each entry point, called with one bad partition in place of its first
# partition argument, and a partition that is well formed but indexes no
# class there (a type A box is 2 x 2; an isotropic or e-basis bound is
# n = 2).  qtilde_epoly is defined on every partition and vanishes above n.
ENTRY_POINTS = [
    ("quantum_pieri_a", lambda lam: qschubert.quantum_pieri_a(lam, 1, 2, 2), (3,)),
    ("quantum_pieri_lg", lambda lam: qschubert.quantum_pieri_lg(lam, 1, 2), (2, 2)),
    ("quantum_pieri_og", lambda lam: qschubert.quantum_pieri_og(lam, 1, 2), (2, 2)),
    ("quantum_product_a", lambda lam: qschubert.quantum_product_a((1,), lam, 2, 2), (3,)),
    ("quantum_product_lg", lambda lam: qschubert.quantum_product_lg((1,), lam, 2), (2, 2)),
    ("quantum_product_og", lambda lam: qschubert.quantum_product_og((1,), lam, 2), (3,)),
    ("quantum_product_lg_pfaffian",
     lambda lam: qschubert.isotropic.quantum_product_lg_pfaffian((1,), lam, 2), (2, 2)),
    ("quantum_product_og_pfaffian",
     lambda lam: qschubert.isotropic.quantum_product_og_pfaffian((1,), lam, 2), (3,)),
    ("gw_a", lambda lam: qschubert.gw_a((1,), (1,), lam, 0, 2, 2), (1, 1, 1)),
    ("gw_a_puzzle", lambda lam: qschubert.gw_a_puzzle((1,), (1,), lam, 0, 2, 2), (3,)),
    ("gw_lg", lambda lam: qschubert.gw_lg((1,), (1,), lam, 0, 2), (1, 1)),
    ("gw_og", lambda lam: qschubert.gw_og((1,), (1,), lam, 0, 2), (3,)),
    ("giambelli_monomials", lambda lam: qschubert.giambelli_monomials(lam, 2, 2), (3,)),
    ("QHElement", lambda lam: qschubert.QHElement(2, 2, {(lam, 0): 1}), (3,)),
    ("IsoQHElement", lambda lam: qschubert.IsoQHElement("OG", 2, {(lam, 0): 1}), (2, 2)),
    ("EPoly", lambda lam: EPoly(2, {lam: 1}), (3,)),
    ("EPoly-zero-coefficient", lambda lam: EPoly(2, {lam: 0}), (3,)),
    ("EPoly.monomial", lambda lam: EPoly.monomial(2, lam), (3, 1)),
    ("qtilde_epoly", lambda lam: qschubert.qtilde_epoly(lam, 2), None),
    ("qtilde_structure", lambda lam: qschubert.qtilde_structure((1,), lam, 2), (3,)),
    ("conjugate", qschubert.conjugate, None),
    ("remove_columns", lambda lam: qschubert.remove_columns(lam, 1), None),
]


def _cases():
    for name, call, out_of_range in ENTRY_POINTS:
        yield pytest.param(call, (1, 2), id=f"{name}-increasing")
        yield pytest.param(call, (2, -1), id=f"{name}-negative")
        yield pytest.param(call, (1.5,), id=f"{name}-not-int")
        if out_of_range is not None:
            yield pytest.param(call, out_of_range, id=f"{name}-out-of-range")


@pytest.mark.parametrize("call, bad", list(_cases()))
def test_entry_points_reject_bad_partitions(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("call", [
    lambda: qschubert.quantum_product_a((1,), (1,), 2.0, 2),
    lambda: qschubert.quantum_product_lg((1,), (1,), 2.0),
    lambda: qschubert.quantum_pieri_a((1,), 1, 2, 2.0),
    lambda: qschubert.QHElement(2.0, 2, {((1,), 0): 1}),
    lambda: qschubert.quantum_product_og((1,), (1,), True),
    lambda: qschubert.hat_map((1,), 2.0),
    lambda: qschubert.strict_dual((), -1),
    lambda: qschubert.rect_dual((1,), True, 2),
    lambda: qschubert.jd_string((1,), True, 2, 0),
    lambda: qschubert.to_01_string((1,), 2.0, 2),
    lambda: qschubert.grassmann_permutation((1,), 2, 2.0),
    lambda: qschubert.from_01_string("0101", 2.0),
    lambda: qschubert.string012_to_permutation("012", 1, True),
    lambda: qschubert.string012_to_permutation("012", -1, 2),
    lambda: qschubert.remove_columns((1,), True),
    lambda: qschubert.qtilde_epoly((1,), 2.0),
    lambda: qschubert.qtilde_epoly((1,), -1),
    lambda: qschubert.qtilde_structure((1,), (1,), 2.0),
    lambda: qschubert.ptilde_structure((1,), (1,), True),
    lambda: qschubert.qtilde_pieri((1,), 1.0, 2),
    lambda: qschubert.qtilde_pieri((1,), True, 2),
    lambda: qschubert.qtilde_pieri((1,), 1, -1),
    lambda: qschubert.expand_in_qtilde(EPoly.monomial(2, (1,)), 2.0),
    lambda: EPoly.zero(2.0),
    lambda: EPoly.one(-1),
], ids=["quantum_product_a", "quantum_product_lg", "quantum_pieri_a", "QHElement",
        "quantum_product_og-bool", "hat_map-float", "strict_dual-negative",
        "rect_dual-bool", "jd_string-bool", "to_01_string-float",
        "grassmann_permutation-float", "from_01_string-float",
        "string012_to_permutation-bool", "string012_to_permutation-negative",
        "remove_columns-bool", "qtilde_epoly-float", "qtilde_epoly-negative",
        "qtilde_structure-float", "ptilde_structure-bool", "qtilde_pieri-p-float",
        "qtilde_pieri-p-bool", "qtilde_pieri-n-negative", "expand_in_qtilde-float",
        "EPoly.zero-float", "EPoly.one-negative"])
def test_entry_points_reject_sizes_that_are_not_ints(call):
    with pytest.raises(ValueError, match="ints"):
        call()


@pytest.mark.parametrize("call", [
    lambda: qschubert.duality_check((3, 2, 1), (1,), (2,), 0.5, 3),
    lambda: qschubert.gw_a((3, 2, 1), (3, 2, 1), (2, 1), 1.0, 3, 3),
    lambda: qschubert.gw_a((3, 2, 1), (3, 2, 1), (2, 1), True, 3, 3),
    lambda: qschubert.gw_lg((1,), (1,), (1,), 1.0, 2),
    lambda: qschubert.gw_a_puzzle((3, 2, 1), (3, 2, 1), (2, 1), 1.0, 3, 3),
    lambda: qschubert.quantum_pieri_a((1,), 1.5, 2, 2),
    lambda: qschubert.quantum_pieri_lg((1,), 1.0, 2),
    lambda: qschubert.quantum_pieri_a((1,), True, 2, 2),
], ids=["duality_check-d-half", "gw_a-d-float", "gw_a-d-bool", "gw_lg-d-float",
        "gw_a_puzzle-d-float", "quantum_pieri_a-p-float", "quantum_pieri_lg-p-float",
        "quantum_pieri_a-p-bool"])
def test_degrees_and_special_indices_must_be_ints(call):
    with pytest.raises(ValueError, match="must be an int"):
        call()


def test_the_degree_check_is_a_type_test():
    # a negative int degree still reads 0, and p keeps its range check
    assert qschubert.gw_a((1,), (1,), (1,), -1, 2, 2) == 0
    with pytest.raises(ValueError, match="must be an int in 1..2"):
        qschubert.quantum_pieri_lg((1,), 3, 2)


@pytest.mark.parametrize("make", [
    lambda coeffs: qschubert.QHElement(2, 2, coeffs),
    lambda coeffs: qschubert.IsoQHElement("LG", 2, coeffs),
], ids=["QHElement", "IsoQHElement"])
@pytest.mark.parametrize("term", [
    (((1,), 0.5), 1), (((1,), True), 1), (((1,), "a"), 1),
    (((1,), 0), 1.5), (((1,), 0), True), (((1,), 0.5), 0),
], ids=["d-float", "d-bool", "d-str", "c-float", "c-bool", "d-float-c-zero"])
def test_element_terms_must_be_ints(make, term):
    with pytest.raises(ValueError, match="must be ints"):
        make(dict([term]))
    assert make({((1,), 0): 1, ((2,), 1): 0}).coeffs == {((1,), 0): 1}


def test_benchmark_selftest_passes():
    # the benchmark wraps engine functions by name; unbinding one fails here
    selftest = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"
    done = subprocess.run([sys.executable, str(selftest)], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("make", [
    lambda: qschubert.QHElement(2, 2, {((1,), 0): 1}),
    lambda: qschubert.IsoQHElement("LG", 2, {((1,), 0): 1}),
    lambda: qschubert.IsoQHElement("OG", 2, {((1,), 0): 1}),
    lambda: qschubert.quantum_product_a((1,), (1,), 2, 2),
    lambda: qschubert.quantum_product_lg((1,), (1,), 2),
    lambda: qschubert.quantum_product_og((1,), (1,), 2),
    lambda: qschubert.quantum_pieri_a((1,), 1, 2, 2),
    lambda: qschubert.quantum_pieri_lg((1,), 1, 2),
    lambda: qschubert.quantum_pieri_og((1,), 1, 2),
], ids=["QHElement", "IsoQHElement-LG", "IsoQHElement-OG", "quantum_product_a",
        "quantum_product_lg", "quantum_product_og", "quantum_pieri_a", "quantum_pieri_lg",
        "quantum_pieri_og"])
def test_every_element_is_one_class(make):
    assert type(make()) is qschubert.ring.Element


def test_element_repr_names_the_one_class():
    assert repr(qschubert.quantum_product_a((1,), (1,), 2, 2)) == "Element(G(2,4), s[2] + s[1,1])"
    assert repr(qschubert.IsoQHElement("OG", 2, {})) == "Element(OG(3,6), 0)"


@pytest.mark.parametrize("nu, d", [((5,), 0), ((1, 2), 0), ((1,), 0.0), ((1,), -1), ((1,), True)],
                         ids=["outside-the-box", "increasing", "d-float", "d-negative", "d-bool"])
def test_coefficient_checks_the_class_and_the_degree(nu, d):
    elem = qschubert.QHElement(2, 2, {((1,), 0): 3})
    with pytest.raises(ValueError):
        elem.coefficient(nu, d)


def test_coefficient_reads_a_caller_class():
    elem = qschubert.quantum_product_lg((2,), (2, 1), 2)
    assert elem.coefficient([2, 0], 1) == elem.coeffs[((2,), 1)] == 1
    assert elem.coefficient((2, 1)) == 0


def test_label_string_is_a_frozen_value():
    word = qschubert.LabelString("0110", "01")
    with pytest.raises(AttributeError, match="cannot assign to field 'symbols'"):
        word.symbols = "1001"
    with pytest.raises(AttributeError, match="cannot delete field 'alphabet'"):
        del word.alphabet
    assert word == qschubert.LabelString("0110", "01")
    assert word != qschubert.LabelString("0110", "012")
    assert word != "0110"
    assert len({word, qschubert.LabelString("0110", "01")}) == 1
    assert repr(word) == "LabelString(symbols='0110', alphabet='01')"


def test_report_equality_and_repr():
    report = qschubert.Report(ok=False, checked=2, failures=["x"], data={"k": 1})
    assert report == qschubert.Report(False, 2, ["x"], {"k": 1})
    assert report != qschubert.Report(False, 2, ["y"], {"k": 1})
    assert report != (False, 2, ["x"], {"k": 1})
    assert repr(report) == "Report(ok=False, checked=2, failures=['x'], data={'k': 1})"
    assert repr(qschubert.Report(True)) == "Report(ok=True, checked=0, failures=[], data={})"
