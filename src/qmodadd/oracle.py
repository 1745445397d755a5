"""Classical reference arithmetic for modulo (2**n + 1) addition.

Everything here works on plain Python integers, so any n fits without
overflow.  These functions are the ground truth the circuits are checked
against.
"""
from __future__ import annotations

from .errors import DomainError, InvalidN


def _check_instance(n: int, a: int, b: int) -> None:
    if n < 1:
        raise InvalidN(f"n must be >= 1, got {n}")
    limit = 1 << n
    if not 0 <= a <= limit:
        raise DomainError(f"a={a} outside [0, 2^{n}]")
    if not 0 <= b <= limit:
        raise DomainError(f"b={b} outside [0, 2^{n}]")


def mod_add_plus_one(n: int, a: int, b: int) -> int:
    """(a + b + 1) mod (2**n + 1), the function the adders implement."""
    _check_instance(n, a, b)
    return (a + b + 1) % ((1 << n) + 1)


def mod_add(n: int, a: int, b: int) -> int:
    """(a + b) mod (2**n + 1), the plain three-case definition."""
    _check_instance(n, a, b)
    modulus = (1 << n) + 1
    total = a + b
    if total < modulus:
        return total
    if total == modulus:
        return 0
    return total % modulus

