"""Payloads spelled as rows: the tests write a `CodedMessage` as its
(d, k1, k2, k3) rows, and these turn the rows into the record's columns."""

from qblock.codec import CodedMessage


def from_rows(scheme, n_rule, dim, alphabet_id, rows):
    """The `CodedMessage` whose rows are `rows`."""
    columns = [*zip(*rows)] or [(), (), (), ()]
    return CodedMessage(scheme, n_rule, dim, alphabet_id, *columns)


def with_rows(coded, rows):
    """`coded` with its rows replaced by `rows`."""
    return from_rows(*coded[:4], rows)
