"""The 2x2 key matrices built from exact Fibonacci/Lucas numbers.

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

from .errors import _int_text


class Family(Enum):
    """Which key family a matrix belongs to."""

    QPOW = "qpow"
    RMAT = "rmat"


class KeyMatrix(namedtuple("KeyMatrix", "family n m11 m12 m21 m22")):
    """A symmetric 2x2 integer key matrix, entries row-major m11 m12 / m21 m22."""

    __slots__ = ()

    @property
    def label(self) -> str:
        return f"Q^{self.n}" if self.family is Family.QPOW else f"R_{self.n}"


def _fibonacci(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)), n >= 1, doubling from (F(1), F(2)) bit by bit of n:
    F(2k) = F(k)(2F(k+1) - F(k)) and F(2k+1) = F(k)^2 + F(k+1)^2."""
    a, b = 1, 1
    for bit in bin(n)[3:]:  # bin() refuses a non-integral n with TypeError
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


def _check_index(n: int) -> None:
    if n < 1:
        raise ValueError(f"key index must be >= 1, got {_int_text(n)}")


def q_power(n: int) -> KeyMatrix:
    """The n-th power of the matrix [[1, 1], [1, 0]], for n >= 1."""
    _check_index(n)
    f, g = _fibonacci(n)
    return KeyMatrix(Family.QPOW, n, g, f, f, g - f)


def r_matrix(n: int) -> KeyMatrix:
    """[[1, 2], [2, -1]] times q_power(n), whose entries are Lucas numbers, n >= 1."""
    _check_index(n)
    f, g = _fibonacci(n)  # the product with [[g, f], [f, g - f]], multiplied out
    return KeyMatrix(Family.RMAT, n, g + 2 * f, 2 * g - f, 2 * g - f, 3 * f - g)
