import pytest

from qblock.numtheory import (
    Family,
    fibonacci,
    key_determinant,
    lucas,
    q_power,
    r_matrix,
)


@pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (2, 1), (5, 5), (10, 55)])
def test_fibonacci_values(n, expected):
    assert fibonacci(n) == expected


@pytest.mark.parametrize("n,expected", [(0, 2), (1, 1), (2, 3), (4, 7), (5, 11)])
def test_lucas_values(n, expected):
    assert lucas(n) == expected


def test_fibonacci_exact_for_large_n():
    # classic reference value, far beyond 64-bit range at n=100
    assert fibonacci(100) == 354224848179261915075
    assert fibonacci(92) == 7540113804746346429


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        fibonacci(-1)
    with pytest.raises(ValueError):
        lucas(-3)


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
    with pytest.raises(ValueError):
        key_determinant(Family.QPOW, 0)


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
    assert key_determinant(family, n) == expected


def test_determinant_identities_hold_up_to_90():
    for n in range(1, 91):
        assert q_power(n).entry_determinant() == key_determinant(Family.QPOW, n)
        assert r_matrix(n).entry_determinant() == key_determinant(Family.RMAT, n)


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
