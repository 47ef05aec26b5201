"""Determinant-checksum block codec on Fibonacci and Lucas key matrices.

Messages are blocked into 2x2 code matrices; one element per block is
dropped at encode time and recovered at decode time from the block
determinant (the paper's shared key matrix cancels from its decode
equation), with tamper detection whenever the recovery has no exact
in-range solution.

Importing the package loads none of its modules: a public name imports its
home module on first use (PEP 562), so a program that only encodes and
decodes never loads the harness or the key matrices.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, by the module that defines it
_HOME = {
    name: module
    for module, names in {
        "alphabet": "DEFAULT_ALPHABET DEFAULT_ALPHABET_ID Alphabet CharTable get_alphabet "
                    "register_alphabet",
        "codec": "CodedMessage DecodeTrace FRow Scheme decode decode_text decode_with_trace "
                 "encode encode_text solve_missing",
        "errors": "BadLength CodeOutOfRange DegenerateBlock EmptyMessage HeaderMismatch "
                  "MalformedPayload NotEnoughRows QblockError TamperDetected UnknownAlphabet "
                  "UnknownSymbol",
        "harness": "CorruptionSpec DetectionReport Strategy corrupt detection_rate",
        "layout": "Block MessageMatrix NRule choose_n preprocess reassemble to_blocks "
                  "to_matrix to_symbols",
        "numtheory": "q_power r_matrix",
        "wire": "parse serialize",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # bound, so later lookups never come back here
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
