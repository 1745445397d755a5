import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmodadd.errors import DomainError, InvalidN
from qmodadd.oracle import mod_add, mod_add_plus_one


@pytest.mark.parametrize(
    "n,a,b,expected",
    [
        (4, 0, 0, 1),
        (4, 16, 16, 16),   # 33 mod 17
        (4, 10, 6, 0),     # 17 mod 17
    ],
)
def test_mod_add_plus_one_examples(n, a, b, expected):
    assert mod_add_plus_one(n, a, b) == expected


@pytest.mark.parametrize(
    "n,a,b,expected",
    [
        (4, 3, 4, 7),      # no wraparound
        (4, 16, 1, 0),     # lands exactly on the modulus
        (4, 16, 5, 4),     # 21 mod 17
    ],
)
def test_mod_add_examples(n, a, b, expected):
    assert mod_add(n, a, b) == expected


def test_domain_errors():
    with pytest.raises(DomainError):
        mod_add_plus_one(4, 17, 0)
    with pytest.raises(DomainError):
        mod_add(4, 0, 17)
    with pytest.raises(InvalidN):
        mod_add(0, 0, 0)


def test_three_evaluations_agree_exhaustively():
    for n in range(1, 7):
        modulus = (1 << n) + 1
        for a in range(modulus):
            for b in range(modulus):
                naive = (a + b + 1) % modulus
                assert mod_add_plus_one(n, a, b) == naive


def test_arrays_give_the_scalar_results_entrywise():
    for n in range(1, 7):
        side = (1 << n) + 1
        a, b = np.divmod(np.arange(side * side), side)
        scalar = [mod_add_plus_one(n, x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert mod_add_plus_one(n, a, b).tolist() == scalar


def test_one_out_of_range_array_entry_raises():
    good = np.arange(17)
    with pytest.raises(DomainError, match=r"^a=17 outside"):
        mod_add_plus_one(4, np.array([0, 16, 17, 3]), good)
    with pytest.raises(DomainError, match=r"^b=-1 outside"):
        mod_add_plus_one(4, good, np.array([5] * 16 + [-1]))


@given(
    n=st.integers(min_value=1, max_value=30),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_identity_and_offset_relation(n, data):
    limit = 1 << n
    a = data.draw(st.integers(min_value=0, max_value=limit))
    b = data.draw(st.integers(min_value=0, max_value=limit))
    naive = (a + b + 1) % (limit + 1)
    assert mod_add_plus_one(n, a, b) == naive
    assert 0 <= naive <= limit
    # decrementing one operand by 1 mod (2^n + 1) converts between the ops
    a_prev = (a + limit) % (limit + 1)
    assert mod_add(n, a, b) == mod_add_plus_one(n, a_prev, b)
