"""Element arithmetic that only the tests need: the engine multiplies
classes, and these tests multiply whole elements to check powers and
associativity."""

from qschubert import ring
from qschubert.ring import A, Element, Space


def multiply_element_by_class(elem: Element, kappa, m: int, n: int) -> Element:
    """elem times s[kappa] on G(m, m+n), by the Giambelli fold of kappa
    into each class of elem."""
    space = Space.of(A, m, n)
    if elem.space != space:
        raise ValueError(f"{elem!r} is not an element of {space.label}")
    kappa = space.check(kappa)
    terms = {(d, nu): c for (nu, d), c in elem.coeffs.items()}
    return space.element(ring.combine(terms, lambda nu: ring.giambelli_fold(space, nu, kappa)))
