import pytest

from ringkit.multipoly import multi_mul_naive


def _certify_divrem(f, dividers, qs, r):
    """Check (qs, r) = multi_divrem(f, dividers) without the division code.

    f is rebuilt as sum(q_i*d_i) + r with the naive product, and no
    remainder term may be reducible by a lead: over a field no lead may
    divide it, elsewhere no lead whose coefficient divides the term's.
    """
    K = f.ring.cring
    back = r
    for q, d in zip(qs, dividers):
        back = back + multi_mul_naive(q, d)
    assert back == f
    assert len(qs) == len(dividers)
    for e, c in r.terms.items():
        for d in dividers:
            le = d.leading_exponent()
            if all(x >= y for x, y in zip(e, le)):
                assert not (K.is_field or K.divides(d.lc(), c)), (e, d)


@pytest.fixture
def certify_divrem():
    return _certify_divrem
