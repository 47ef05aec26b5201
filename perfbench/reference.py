"""Independent reference for the qblock codec, used to check every output.

Shares no code with the package: the alphabet, padding, key-index rules,
block order, wire text and the tamper verdict are restated here from the
published description, so a defect in the package cannot also hide in its
own check.  The Fibonacci/Lucas numbers use fast doubling, a different
algorithm from the package's.
"""

SYMBOLS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0!?."
SIZE = len(SYMBOLS)
PAD = "0"
_INDEX = {s: k for k, s in enumerate(SYMBOLS)}

# which kept element must be nonzero for the dropped one to be recoverable
PIVOT = {"lucas": "b2", "mine": "b1"}


def side_of(symbols):
    """Smallest even side whose square holds the symbols."""
    side = 2
    while side * side < len(symbols):
        side += 2
    return side


def symbols_of(text):
    """Uppercase, spaces to '0', pad with '0' to the smallest even square."""
    s = text.upper().replace(" ", PAD)
    side = side_of(s)
    return s + PAD * (side * side - len(s))


def key_index(blocks, rule):
    if rule == "half":
        return blocks if blocks <= 3 else blocks // 2
    return 3 if blocks <= 3 else blocks


def grid(symbols, rule):
    """Code matrix rows and the key index n for a preprocessed symbol string."""
    side = side_of(symbols)
    n = key_index((side // 2) ** 2, rule)
    codes = [(n + _INDEX[s]) % SIZE for s in symbols]
    return tuple(tuple(codes[r * side : (r + 1) * side]) for r in range(side)), n


def blocks(cells):
    """(b1, b2, b3, b4) per 2x2 block, left to right, top to bottom."""
    side = len(cells)
    out = []
    for r in range(0, side, 2):
        for c in range(0, side, 2):
            out.append((cells[r][c], cells[r][c + 1], cells[r + 1][c], cells[r + 1][c + 1]))
    return out


def rows(cells, scheme):
    """Transmitted (d, k1, k2, k3) per block."""
    out = []
    for b1, b2, b3, b4 in blocks(cells):
        d = b1 * b4 - b2 * b3
        out.append((d, b1, b2, b4) if scheme == "lucas" else (d, b1, b2, b3))
    return out


def dropped(cells, scheme):
    """The element each block leaves out: b3 for lucas, b4 for mine."""
    return [b[2] if scheme == "lucas" else b[3] for b in blocks(cells)]


def payload(cells, scheme, rule):
    head = f"QBLK1;scheme={scheme};nrule={rule};dim={len(cells)};alpha=default\n"
    return head + "".join(f"{d},{k1},{k2},{k3}\n" for d, k1, k2, k3 in rows(cells, scheme))


def recover(row, scheme):
    """Closed-form dropped element of one row, or None when the row is
    rejected: a kept code out of range, a zero pivot, no exact solution,
    or a recovered code out of range."""
    d, k1, k2, k3 = row
    if not (0 <= k1 < SIZE and 0 <= k2 < SIZE and 0 <= k3 < SIZE):
        return None
    if scheme == "lucas":
        pivot, numerator = k2, k1 * k3 - d
    else:
        pivot, numerator = k1, d + k2 * k3
    if pivot == 0 or numerator % pivot:
        return None
    x = numerator // pivot
    return x if 0 <= x < SIZE else None


def decoded_cells(rows_, scheme, side):
    """The matrix a correct decoder returns for these rows, or None if any
    row is rejected."""
    cells = [[0] * side for _ in range(side)]
    per_row = side // 2
    for i, row in enumerate(rows_):
        x = recover(row, scheme)
        if x is None:
            return None
        _, k1, k2, k3 = row
        b = (k1, k2, x, k3) if scheme == "lucas" else (k1, k2, k3, x)
        r, c = 2 * (i // per_row), 2 * (i % per_row)
        cells[r][c], cells[r][c + 1], cells[r + 1][c], cells[r + 1][c + 1] = b
    return tuple(tuple(r) for r in cells)


def outcome(decoded, original_cells):
    """Harness verdict for a corrupted payload, given what a correct decoder
    returns for it (``decoded_cells``)."""
    if decoded is None:
        return "detected"
    return "undetected_equal" if decoded == original_cells else "miscorrected"


def corrupted_as(strategy, before, after):
    """Whether `after` differs from `before` the way the strategy says:
    one d changed, one kept code changed to another in-range code, or two
    unequal rows exchanged."""
    changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
    if len(before) != len(after):
        return False
    if strategy == "swap-rows":
        if len(changed) != 2:
            return False
        i, j = changed
        return after[i] == before[j] and after[j] == before[i]
    if len(changed) != 1:
        return False
    old, new = before[changed[0]], after[changed[0]]
    fields = [f for f in range(4) if old[f] != new[f]]
    if strategy == "perturb-d":
        return fields == [0]
    return len(fields) == 1 and fields[0] > 0 and 0 <= new[fields[0]] < SIZE


def _fib_pair(n):
    """(F(n), F(n+1)) by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n & 1 else (c, d)


def q_power(n):
    """Entries (m11, m12, m21, m22) of [[1,1],[1,0]]^n."""
    f, f1 = _fib_pair(n)
    return (f1, f, f, f1 - f)


def r_matrix(n):
    """Entries of [[1,2],[2,-1]] times q_power(n): Lucas L(n+1), L(n), L(n), L(n-1)."""
    f, f1 = _fib_pair(n)
    l_n = 2 * f1 - f          # L(n) = F(n-1) + F(n+1)
    l_next = f1 + 2 * f       # L(n+1) = F(n) + F(n+2)
    return (l_next, l_n, l_n, l_next - l_n)
