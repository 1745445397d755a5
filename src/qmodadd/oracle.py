"""Classical reference arithmetic for modulo (2**n + 1) addition.

This is the ground truth the circuits are checked against, on ints,
on integer arrays and on bit planes.  On plain Python integers any n
fits without overflow, and ints and planes leave numpy unloaded.
"""
from __future__ import annotations

import operator

from .errors import DomainError, InvalidN, LengthMismatch


def _check_instance(n: int, a=0, b=0, arrays: bool = True) -> None:
    """Raise unless n >= 1 and a and b (0 if not given) lie in [0, 2^n],
    naming the first entry outside.  Each is what `operator.index` takes
    (int, bool, numpy integer), or, if `arrays`, a and b are integer-dtype
    arrays."""
    try:
        if operator.index(n) < 1:
            raise InvalidN(f"n must be >= 1, got {n}")
    except TypeError:
        raise DomainError(f"n={n!r} is not an integer") from None
    limit = 1 << n
    for name, value in (("a", a), ("b", b)):
        try:
            bad = None if 0 <= operator.index(value) <= limit else value
        except TypeError:
            kind = getattr(getattr(value, "dtype", None), "kind", None)
            if not arrays or kind not in ("i", "u"):
                raise DomainError(f"{name}={value!r} is not an integer") from None
            outside = (value < 0) | (value > limit)
            bad = value[outside][0] if outside.any() else None
        if bad is not None:
            raise DomainError(f"{name}={bad} outside [0, 2^{n}]")


def mod_add_plus_one(n: int, a, b):
    """(a + b + 1) mod (2**n + 1), the function the adders implement.

    a and b are ints, or integer arrays that give the result entrywise;
    an array's dtype must hold 2**(n + 1) + 1."""
    _check_instance(n, a, b)
    return (a + b + 1) % ((1 << n) + 1)


def mod_add(n: int, a: int, b: int) -> int:
    """(a + b) mod (2**n + 1), the plain three-case definition, on ints;
    an array is refused."""
    _check_instance(n, a, b, arrays=False)
    modulus = (1 << n) + 1
    total = a + b
    if total < modulus:
        return total
    if total == modulus:
        return 0
    return total % modulus


def spec_planes(n: int, a: list, b: list) -> tuple[list, list]:
    """The n + 2 bit planes of `mod_add_plus_one` and of a + b from the
    n + 1 planes of each operand, low bit first, one bit per lane as in
    an int.  Only `^`, `&`, `|` and the planes 0 and -1 are applied;
    lanes with a or b over 2^n mean nothing."""
    _check_instance(n)
    if len(a) != n + 1 or len(b) != n + 1:
        raise LengthMismatch(f"want {n + 1} planes per operand, got {len(a)} and {len(b)}")
    sums, plus_one = _ripple(a, b, 0), _ripple(a, b, -1)
    # Where a + b >= 2^n, the mod is a + b - 2^n: bit n + 1 moves to bit n.
    wraps, less = sums[n] | sums[n + 1], sums[:n] + [sums[n + 1], 0]
    return [t ^ ((t ^ d) & wraps) for t, d in zip(plus_one, less)], sums


def _ripple(xs: list, ys: list, carry) -> list:
    """Bit planes of xs + ys + carry, lane by lane, least significant
    first and one plane longer than xs: the last is the carry out."""
    out = []
    for x, y in zip(xs, ys):
        out.append(x ^ y ^ carry)
        carry = (x & y) | (carry & (x ^ y))
    return out + [carry]
