"""The key matrices against the Fibonacci and Lucas numbers of the oracle in
bruteforce.py, which shares no code with the package."""

import pytest

from bruteforce import fib, key_det, luc
from qblock.numtheory import Family, q_power, r_matrix


def det(key):
    return key.m11 * key.m22 - key.m12 * key.m21


# q_power(n + 1) ends in F(n), r_matrix(n + 1) in L(n)
@pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (2, 1), (5, 5), (10, 55)])
def test_fibonacci_values(n, expected):
    assert fib(n) == expected
    assert q_power(n + 1).m22 == expected


@pytest.mark.parametrize("n,expected", [(0, 2), (1, 1), (2, 3), (4, 7), (5, 11)])
def test_lucas_values(n, expected):
    assert luc(n) == expected
    assert r_matrix(n + 1).m22 == expected


def test_fibonacci_exact_for_large_n():
    # classic reference value, far beyond 64-bit range at n=100
    assert fib(100) == q_power(100).m12 == 354224848179261915075
    assert fib(92) == q_power(92).m12 == 7540113804746346429


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        q_power(-1)
    with pytest.raises(ValueError):
        r_matrix(-3)


@pytest.mark.parametrize("key", [q_power, r_matrix])
@pytest.mark.parametrize("n", [2.5, 2.0])
def test_a_non_integral_index_is_a_type_error(key, n):
    with pytest.raises(TypeError):
        key(n)


@pytest.mark.parametrize("key", [q_power, r_matrix])
def test_an_index_past_the_int_string_limit_is_named_by_its_size(key):
    # str() refuses an int of 5001 digits, so the text gives its size instead
    with pytest.raises(ValueError) as info:
        key(-(10**5000))
    assert str(info.value) == "key index must be >= 1, got a negative 16610-bit integer"


@pytest.mark.parametrize(
    "n,entries",
    [(1, (1, 1, 1, 0)), (2, (2, 1, 1, 1)), (4, (5, 3, 3, 2))],
)
def test_q_power_entries(n, entries):
    k = q_power(n)
    assert (k.m11, k.m12, k.m21, k.m22) == entries
    assert k.family is Family.QPOW and k.n == n


@pytest.mark.parametrize(
    "n,entries",
    [(1, (3, 1, 1, 2)), (2, (4, 3, 3, 1)), (4, (11, 7, 7, 4))],
)
def test_r_matrix_entries(n, entries):
    k = r_matrix(n)
    assert (k.m11, k.m12, k.m21, k.m22) == entries
    assert k.family is Family.RMAT and k.n == n


def test_zero_index_rejected():
    for fn in (q_power, r_matrix):
        with pytest.raises(ValueError):
            fn(0)


@pytest.mark.parametrize(
    "family,n,expected",
    [
        (Family.QPOW, 4, 1),
        (Family.QPOW, 3, -1),
        (Family.RMAT, 2, -5),
        (Family.RMAT, 4, -5),
        (Family.RMAT, 3, 5),
    ],
)
def test_key_determinant_closed_form(family, n, expected):
    build, seq = (q_power, fib) if family is Family.QPOW else (r_matrix, luc)
    assert det(build(n)) == key_det(seq, n) == expected


def test_determinant_identities_hold_up_to_90():
    # det Q^n = (-1)^n and det R_n = 5(-1)^(n+1), the factor that cancels in decode
    for n in range(1, 91):
        q, r = q_power(n), r_matrix(n)
        assert det(q) == key_det(fib, n) == (-1) ** n
        assert det(r) == key_det(luc, n) == 5 * (-1) ** (n + 1)
        assert (q.m11, q.m12, q.m22) == (fib(n + 1), fib(n), fib(n - 1))
        assert (r.m11, r.m12, r.m22) == (luc(n + 1), luc(n), luc(n - 1))


def test_keys_equal_the_oracle_terms_up_to_500_and_past_10_000():
    # the doubling that builds both keys, against the oracle's plain recurrence
    for n in [*range(1, 501), 10_007, 16_384, 32_769]:
        assert q_power(n)[2:] == (fib(n + 1), fib(n), fib(n), fib(n - 1)), n
        assert r_matrix(n)[2:] == (luc(n + 1), luc(n), luc(n), luc(n - 1)), n


def test_r_matrix_is_literal_product():
    # [[1, 2], [2, -1]] times q_power(n), multiplied out entry by entry
    for n in range(1, 91):
        q = q_power(n)
        r = r_matrix(n)
        assert r.m11 == q.m11 + 2 * q.m21
        assert r.m12 == q.m12 + 2 * q.m22
        assert r.m21 == 2 * q.m11 - q.m21
        assert r.m22 == 2 * q.m12 - q.m22


def test_key_matrices_symmetric():
    for n in range(1, 91):
        for build in (q_power, r_matrix):
            k = build(n)
            assert k.m12 == k.m21


def test_labels():
    assert q_power(4).label == "Q^4"
    assert r_matrix(2).label == "R_2"
