"""Determinant-checksum block codec on Fibonacci and Lucas key matrices.

Messages are blocked into 2x2 code matrices; one element per block is
dropped at encode time and recovered at decode time from the block
determinant (the paper's shared key matrix cancels from its decode
equation), with tamper detection whenever the recovery has no exact
in-range solution.
"""

from .alphabet import (
    DEFAULT_ALPHABET,
    DEFAULT_ALPHABET_ID,
    Alphabet,
    CharTable,
    get_alphabet,
    register_alphabet,
)
from .codec import (
    CodedMessage,
    DecodeTrace,
    FRow,
    Scheme,
    decode,
    decode_text,
    decode_with_trace,
    encode,
    encode_text,
    solve_missing,
)
from .errors import (
    BadLength,
    CodeOutOfRange,
    DegenerateBlock,
    EmptyMessage,
    HeaderMismatch,
    MalformedPayload,
    NotEnoughRows,
    QblockError,
    TamperDetected,
    UnknownAlphabet,
    UnknownSymbol,
)
from .harness import CorruptionSpec, DetectionReport, Strategy, corrupt, detection_rate
from .layout import (
    Block,
    MessageMatrix,
    NRule,
    choose_n,
    preprocess,
    reassemble,
    to_blocks,
    to_matrix,
    to_symbols,
)
from .numtheory import q_power, r_matrix
from .wire import parse, serialize

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BadLength",
    "Block",
    "CharTable",
    "CodeOutOfRange",
    "CodedMessage",
    "CorruptionSpec",
    "DEFAULT_ALPHABET",
    "DEFAULT_ALPHABET_ID",
    "DecodeTrace",
    "DegenerateBlock",
    "DetectionReport",
    "EmptyMessage",
    "FRow",
    "HeaderMismatch",
    "MalformedPayload",
    "MessageMatrix",
    "NRule",
    "NotEnoughRows",
    "QblockError",
    "Scheme",
    "Strategy",
    "TamperDetected",
    "UnknownAlphabet",
    "UnknownSymbol",
    "choose_n",
    "corrupt",
    "decode",
    "decode_text",
    "decode_with_trace",
    "detection_rate",
    "encode",
    "encode_text",
    "get_alphabet",
    "parse",
    "preprocess",
    "q_power",
    "r_matrix",
    "reassemble",
    "register_alphabet",
    "serialize",
    "solve_missing",
    "to_blocks",
    "to_matrix",
    "to_symbols",
]
