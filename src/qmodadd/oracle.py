"""Classical reference arithmetic for modulo (2**n + 1) addition.

On plain Python integers any n fits without overflow.  These functions
are the ground truth the circuits are checked against; on ints they
leave numpy unloaded.
"""
from __future__ import annotations

from .errors import DomainError, InvalidN


def _check_instance(n: int, a, b) -> None:
    """Raise unless n >= 1 and a and b, ints or integer arrays (every
    entry), lie in [0, 2^n]; the message names the first entry outside."""
    if n < 1:
        raise InvalidN(f"n must be >= 1, got {n}")
    limit = 1 << n
    for name, value in (("a", a), ("b", b)):
        if isinstance(value, int):
            bad = None if 0 <= value <= limit else value
        else:  # an array, or a numpy scalar of ndim 0
            outside = (value < 0) | (value > limit)
            bad = (value[outside][0] if outside.ndim else value) if outside.any() else None
        if bad is not None:
            raise DomainError(f"{name}={bad} outside [0, 2^{n}]")


def mod_add_plus_one(n: int, a, b):
    """(a + b + 1) mod (2**n + 1), the function the adders implement.

    a and b are ints, or integer arrays that give the result entrywise;
    an array's dtype must hold 2**(n + 1) + 1."""
    _check_instance(n, a, b)
    return (a + b + 1) % ((1 << n) + 1)


def mod_add(n: int, a: int, b: int) -> int:
    """(a + b) mod (2**n + 1), the plain three-case definition, on ints."""
    _check_instance(n, a, b)
    modulus = (1 << n) + 1
    total = a + b
    if total < modulus:
        return total
    if total == modulus:
        return 0
    return total % modulus
