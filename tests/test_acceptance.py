"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Golden values live in golden.py; the brute-force equation scans live in
bruteforce.py and share no code with the package.
"""

import random
import time
from contextlib import contextmanager

import pytest

import golden
from bruteforce import key_det, luc, scan_lucas, scan_mine
from payloads import from_rows
from qblock.codec import FRow, Scheme, encode_text, solve_missing
from qblock.errors import DegenerateBlock, TamperDetected
from qblock.harness import CorruptionSpec, Strategy, corrupt, detection_rate, trial_spec
from qblock.layout import NRule
from qblock.matrix import MessageMatrix, decode, decode_with_trace, encode, to_blocks
from qblock.numtheory import q_power, r_matrix
from qblock.wire import parse


@contextmanager
def criterion(number, title, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s >= {limit_seconds}s"
    print(f"acceptance {number} ({title}): PASS [{elapsed:.2f}s]")


def ex1_coded():
    return from_rows(Scheme.LUCAS_BLOCKING, NRule.HALF, golden.EX1_DIM, "default", golden.EX1_F)


def ex2_coded():
    return from_rows(Scheme.MINESWEEPER, NRule.HALF, golden.EX2_DIM, "default", golden.EX2_F)


def test_criterion_1_golden_example_1_encode():
    with criterion(1, "golden example 1 encode", 1.0):
        coded = encode_text(golden.EX1_MESSAGE, Scheme.LUCAS_BLOCKING, NRule.HALF)
        assert tuple((r.d, r.k1, r.k2, r.k3) for r in coded.rows) == golden.EX1_F


def test_criterion_2_golden_example_1_decode():
    with criterion(2, "golden example 1 decode", 1.0):
        # the decode constant for the Lucas key at n=2 is -5
        assert key_det(luc, 2) == -5
        matrix, traces = decode_with_trace(ex1_coded())
        assert tuple(t.x for t in traces) == golden.EX1_X == (9, 24, 26, 22)
        assert matrix.cells == golden.EX1_MATRIX


def test_criterion_3_golden_example_2_encode():
    with criterion(3, "golden example 2 encode", 1.0):
        coded = encode_text(golden.EX2_MESSAGE, Scheme.MINESWEEPER, NRule.HALF)
        rows = tuple((r.d, r.k1, r.k2, r.k3) for r in coded.rows)
        assert rows == golden.EX2_F
        assert rows[3][0] == -357
        assert rows[7][0] == 0 and rows[8][0] == 0


def test_criterion_4_golden_example_2_decode():
    with criterion(4, "golden example 2 decode", 1.0):
        matrix, traces = decode_with_trace(ex2_coded())
        assert tuple(t.x for t in traces) == golden.EX2_X == (18, 8, 15, 0, 21, 19, 28, 0, 0)
        bottom_right = (
            (matrix.cells[4][4], matrix.cells[4][5]),
            (matrix.cells[5][4], matrix.cells[5][5]),
        )
        assert bottom_right == ((4, 19), (0, 0))
        e1 = tuple(t.e1 for t in traces)
        e2 = tuple(t.e2 for t in traces)
        assert e1 == golden.EX2_E1 and e1[0] == 116
        assert e2 == golden.EX2_E2 and e2[1] == 221


def test_criterion_5_identity_suite():
    with criterion(5, "determinant identities n=1..90", 1.0):
        for n in range(1, 91):
            q = q_power(n)
            r = r_matrix(n)
            assert q.m11 * q.m22 - q.m12 * q.m21 == (-1) ** n
            assert r.m11 * r.m22 - r.m12 * r.m21 == 5 * (-1) ** (n + 1)
            # r equals [[1,2],[2,-1]] times q, entry by entry
            assert (r.m11, r.m12, r.m21, r.m22) == (
                q.m11 + 2 * q.m21,
                q.m12 + 2 * q.m22,
                2 * q.m11 - q.m21,
                2 * q.m12 - q.m22,
            )


def test_criterion_6_roundtrip_property():
    with criterion(6, "1000 round trips per scheme", 30.0):
        rng = random.Random(2024)
        for scheme in Scheme:
            pivot = (lambda b: b.b2) if scheme is Scheme.LUCAS_BLOCKING else (lambda b: b.b1)
            clean = degenerate = 0
            while clean < 1000:
                dim = rng.choice((2, 4, 6, 8, 10))
                matrix = MessageMatrix(
                    dim, tuple(tuple(rng.randrange(30) for _ in range(dim)) for _ in range(dim))
                )
                zero_pivots = tuple(b.index for b in to_blocks(matrix) if pivot(b) == 0)
                if zero_pivots:
                    with pytest.raises(DegenerateBlock) as info:
                        encode(matrix, scheme)
                    assert info.value.indices == zero_pivots
                    degenerate += 1
                    continue
                assert decode(encode(matrix, scheme)) == matrix
                clean += 1
            print(f"  scheme={scheme.value}: {clean} round trips, "
                  f"{degenerate} degenerate regenerated")


def test_criterion_7_oracle_equivalence():
    with criterion(7, "solver equals brute-force scan", 30.0):
        rng = random.Random(7777)
        for _ in range(10000):
            n = rng.randint(1, 12)
            b1, b2, b3, b4 = (rng.randrange(30) for _ in range(4))
            d = b1 * b4 - b2 * b3

            sols = scan_lucas(d, b1, b2, b4, n)
            if b2 != 0:
                assert sols == [b3]
                assert solve_missing(FRow(d, b1, b2, b4), Scheme.LUCAS_BLOCKING) == b3
            else:
                assert sols == list(range(30))  # no unique solution
                with pytest.raises(TamperDetected):
                    solve_missing(FRow(d, b1, b2, b4), Scheme.LUCAS_BLOCKING)

            i = rng.randint(1, 9)
            sols = scan_mine(d, b1, b2, b3, n, i)
            if b1 != 0:
                assert sols == [b4]
                assert solve_missing(FRow(d, b1, b2, b3), Scheme.MINESWEEPER) == b4
            else:
                assert sols == list(range(30))
                with pytest.raises(TamperDetected):
                    solve_missing(FRow(d, b1, b2, b3), Scheme.MINESWEEPER)


def test_criterion_8_tamper_detection_consistency():
    with criterion(8, "perturb-d agrees with closed form", 30.0):
        # the single-step corruption of d1 from 54 to 55 must be detected
        tampered = parse(golden.EX1_PAYLOAD.replace("54,9,10,16", "55,9,10,16"))
        with pytest.raises(TamperDetected) as info:
            decode(tampered)
        assert info.value.block_index == 1

        # trial-by-trial: undetected (clean decode) iff the perturbation is
        # a multiple of the hit row's pivot and the shifted code stays in range
        message = golden.EX1_MESSAGE
        coded = encode_text(message, Scheme.LUCAS_BLOCKING)
        original_blocks = {
            r: (row.k1, row.k2, golden.EX1_X[r], row.k3) for r, row in enumerate(coded.rows)
        }
        spec = CorruptionSpec(Strategy.PERTURB_D, magnitude=60, seed=123)
        trials = 400
        report = detection_rate(message, Scheme.LUCAS_BLOCKING, spec, trials)
        assert report.undetected_equal == 0
        predicted_miss = 0
        for t, outcome in enumerate(report.outcomes):
            damaged = corrupt(coded, trial_spec(spec, t))
            (hit,) = [r for r in range(len(coded.rows)) if damaged.rows[r] != coded.rows[r]]
            delta = damaged.rows[hit].d - coded.rows[hit].d
            b1, b2, x, b4 = original_blocks[hit]
            undetected = delta % b2 == 0 and 0 <= x - delta // b2 < 30
            assert outcome == ("miscorrected" if undetected else "detected"), (t, delta, b2)
            predicted_miss += undetected
        assert report.miscorrected == predicted_miss
        assert report.miscorrected > 0  # magnitude 60 covers every pivot
        # determinism under a fixed seed
        assert detection_rate(message, Scheme.LUCAS_BLOCKING, spec, trials) == report
