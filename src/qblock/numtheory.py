"""Exact Fibonacci/Lucas numbers and the 2x2 key matrices built from them.

The two key families:

    q_power(n)  = [[F(n+1), F(n)], [F(n), F(n-1)]]     (n-th power of [[1,1],[1,0]])
    r_matrix(n) = [[L(n+1), L(n)], [L(n), L(n-1)]]     (= [[1,2],[2,-1]] times q_power(n))

and their determinants, the factor that cancels from the paper's decode
equation (see codec):

    det q_power(n)  = F(n+1)F(n-1) - F(n)^2 = (-1)^n
    det r_matrix(n) = L(n+1)L(n-1) - L(n)^2 = 5(-1)^(n+1)

Everything is plain Python int, so the identities hold exactly for any n.
"""

from collections import namedtuple
from enum import Enum


class Family(Enum):
    """Which key family a matrix belongs to."""

    QPOW = "qpow"
    RMAT = "rmat"


class KeyMatrix(namedtuple("KeyMatrix", "family n m11 m12 m21 m22")):
    """A symmetric 2x2 integer key matrix, entries row-major m11 m12 / m21 m22."""

    __slots__ = ()

    def entry_determinant(self) -> int:
        """Determinant computed from the entries (not the closed form)."""
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def label(self) -> str:
        return f"Q^{self.n}" if self.family is Family.QPOW else f"R_{self.n}"


def _terms(n: int, a: int, b: int) -> tuple[int, int]:
    """Terms n and n+1 of the recurrence t(k+1) = t(k) + t(k-1), t(0) = a, t(1) = b."""
    for _ in range(n):
        a, b = b, a + b
    return a, b


def fibonacci(n: int) -> int:
    """F(n) with F(0) = 0, F(1) = 1."""
    if n < 0:
        raise ValueError(f"fibonacci index must be >= 0, got {n}")
    return _terms(n, 0, 1)[0]


def lucas(n: int) -> int:
    """L(n) with L(0) = 2, L(1) = 1."""
    if n < 0:
        raise ValueError(f"lucas index must be >= 0, got {n}")
    return _terms(n, 2, 1)[0]


def _check_index(n: int) -> None:
    if n < 1:
        raise ValueError(f"key index must be >= 1, got {n}")


def q_power(n: int) -> KeyMatrix:
    """The n-th power of the matrix [[1, 1], [1, 0]], for n >= 1."""
    _check_index(n)
    # one pass of the recurrence yields the three consecutive terms
    prev, cur = _terms(n - 1, 0, 1)
    return KeyMatrix(Family.QPOW, n, prev + cur, cur, cur, prev)


def r_matrix(n: int) -> KeyMatrix:
    """[[1, 2], [2, -1]] times q_power(n), written with Lucas entries, n >= 1."""
    _check_index(n)
    prev, cur = _terms(n - 1, 2, 1)
    return KeyMatrix(Family.RMAT, n, prev + cur, cur, cur, prev)


def key_determinant(family: Family, n: int) -> int:
    """Closed-form determinant of the key matrix."""
    _check_index(n)
    if family is Family.QPOW:
        return -1 if n % 2 else 1
    return -5 if n % 2 == 0 else 5

