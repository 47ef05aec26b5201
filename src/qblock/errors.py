"""Exception hierarchy shared by all qblock modules."""


class QblockError(Exception):
    """Base class for every error raised by this package."""


class UnknownSymbol(QblockError):
    """A character of the message is not in the active alphabet."""


class CodeOutOfRange(QblockError):
    """A numeric code falls outside [0, alphabet size)."""


class EmptyMessage(QblockError):
    """The message text is empty."""


class BadLength(QblockError):
    """A symbol string or block list does not fit an even square matrix."""


class DegenerateBlock(QblockError):
    """One or more blocks have a zero pivot, so the dropped element
    could not be recovered at the other end.  Refused at encode time."""

    def __init__(self, indices):
        self.indices = tuple(indices)
        super().__init__(f"zero pivot in block(s) {', '.join(map(str, self.indices))}")


class TamperDetected(QblockError):
    """Decoding failed a consistency check: the payload was corrupted."""

    def __init__(self, message, block_index=None):
        self.block_index = block_index
        super().__init__(message)


class HeaderMismatch(QblockError):
    """Payload header is internally inconsistent: the dimension is not
    even and >= 2, or the row count does not match it."""


class UnknownAlphabet(QblockError):
    """The alphabet id is not registered on this side."""


class MalformedPayload(QblockError):
    """Payload text does not follow the wire grammar."""


class NotEnoughRows(QblockError):
    """The corruption strategy needs more rows than the payload has."""


def _int_text(value) -> str:
    """`value` as str() shows it, or, for an int past the int-string limit, its size."""
    try:
        return str(value)
    except ValueError:  # str() refuses an int longer than the interpreter's limit
        return f"a {'negative ' * (value < 0)}{value.bit_length()}-bit integer"
