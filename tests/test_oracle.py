import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmodadd.builders import decode
from qmodadd.errors import DomainError, InvalidN, LengthMismatch, QmodaddError
from qmodadd.oracle import mod_add, mod_add_plus_one, spec_planes


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


@pytest.mark.parametrize("value", [1.5, np.float64(1.5), np.array([1.5]), "1"])
def test_non_integers_are_refused(value):
    for call in (lambda: mod_add_plus_one(2, value, 1), lambda: mod_add_plus_one(2, 1, value),
                 lambda: mod_add(2, value, 1), lambda: mod_add(value, 1, 1)):
        with pytest.raises(QmodaddError):
            call()
    with pytest.raises(DomainError, match="not an integer"):
        mod_add(2.0, 1, 1)


@pytest.mark.parametrize("a,b", [(np.array([1, 2]), 1), (1, np.array([1, 2])),
                                 (np.array([1]), 1), (np.array([[1]]), np.array([1]))])
def test_mod_add_refuses_arrays(a, b):
    with pytest.raises(DomainError, match="is not an integer"):
        mod_add(2, a, b)


def test_bools_numpy_ints_and_integer_arrays_keep_their_results():
    assert mod_add_plus_one(2, True, 1) == 3
    assert mod_add(2, True, 1) == 2
    for three in (np.int64(3), np.array(3)):
        assert mod_add_plus_one(2, three, 1) == 0 and mod_add(2, three, 1) == 4
    assert mod_add_plus_one(2, np.array([3]), 1).tolist() == [0]
    assert mod_add_plus_one(np.int64(2), 1, 1) == 3
    assert mod_add_plus_one(True, 1, 1) == 0


def test_spec_planes_give_the_oracle_lane_by_lane():
    for n in range(1, 7):
        side = (1 << n) + 1
        pairs = [divmod(lane, side) for lane in range(side * side)]  # every pair, a-major
        a_planes, b_planes = (
            [sum(((pair[k] >> i) & 1) << lane for lane, pair in enumerate(pairs))
             for i in range(n + 1)]
            for k in (0, 1)
        )
        mods, sums = spec_planes(n, a_planes, b_planes)
        assert len(mods) == len(sums) == n + 2
        for lane, (a, b) in enumerate(pairs):
            mod, total = (decode([(p >> lane) & 1 for p in planes], range(n + 2))
                          for planes in (mods, sums))
            assert (mod, total) == (mod_add_plus_one(n, a, b), a + b), (n, a, b)


def test_spec_planes_refuse_a_bad_n_or_plane_count():
    with pytest.raises(InvalidN):
        spec_planes(0, [0], [0])
    with pytest.raises(LengthMismatch):
        spec_planes(2, [0, 0, 0], [0, 0])
    with pytest.raises(LengthMismatch):
        spec_planes(2, [0, 0, 0, 0], [0, 0, 0])


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
