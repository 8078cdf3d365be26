"""Exact convex dominance, decided by two shortcuts or an integer simplex.

`convex_dominates` first answers the two cases that need no tableau, on
the raw inputs: some candidate is at least the target in every coordinate
(True: that candidate with weight 1), or some target coordinate exceeds
that coordinate of every candidate (False: no convex combination passes
the maximum).  Only the rest, where a genuine mixture decides, builds the
phase-1 LP, over the candidates that no other candidate dominates.  Its
tableau holds integers only: each row is scaled to integers, and the
pivots are fraction-free (Edmonds 1967, Bareiss 1968), so every division
is exact and the entries stay minors of the input.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import ge


def _feasible(rows: list[list[int]]) -> bool:
    """Is there x >= 0 with A x = b, for the integer rows [A | b]?

    Phase 1 with Bland's rule, minimizing the sum of artificials.  After
    each pivot every row of the tableau [A | I | b] and of the objective
    carries the same positive factor, the last pivot, over the rational
    tableau, so the signs and ratios Bland's rule reads are the rational
    ones and the same pivots are taken.
    """
    m = len(rows)
    n = len(rows[0]) - 1
    T = []
    for i, row in enumerate(rows):
        if row[-1] < 0:
            row = [-v for v in row]
        T.append(row[:-1] + [int(i == r) for r in range(m)] + row[-1:])
    # objective row: minus the sum of the rows, zero on the basic artificials
    obj = [-sum(col) for col in zip(*T)]
    obj[n : n + m] = [0] * m
    T.append(obj)
    basis = list(range(n, n + m))
    prev = 1
    while True:
        obj = T[m]
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            return obj[-1] == 0
        can_leave = [i for i in range(m) if T[i][enter] > 0]
        if not can_leave:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise ArithmeticError("phase-1 unbounded")
        leave = min(can_leave, key=lambda i: (Fraction(T[i][-1], T[i][enter]), basis[i]))
        w = T[leave]
        piv = w[enter]
        for i, r in enumerate(T):
            if i != leave:
                f = r[enter]
                T[i] = [(piv * v - f * x) // prev for v, x in zip(r, w)]
        prev = piv
        basis[leave] = enter


def convex_dominates(target, candidates) -> bool:
    """Does some convex combination of candidates dominate target componentwise?

    target and candidates are sequences of numbers over a common index
    set; empty candidate set gives False.
    """
    cands = [tuple(c) for c in candidates]
    if not cands:
        return False
    tgt = tuple(target)
    d = len(tgt)
    if any(len(c) != d for c in cands):
        raise ValueError("dimension mismatch")
    # ints and Fractions compare exactly, so both shortcuts are exact
    if any(all(cj >= tj for cj, tj in zip(c, tgt)) for c in cands):
        return True
    if any(all(tj > c[j] for c in cands) for j, tj in enumerate(tgt)):
        return False
    # a repeated candidate, or one that another candidate is at least in
    # every coordinate, adds nothing a mixture of the others lacks
    cands = list(dict.fromkeys(cands))
    cands = [c for c in cands if not any(o != c and all(map(ge, o, c)) for o in cands)]
    k = len(cands)
    # variables: lambda_1..k, slack s_1..d
    # sum lambda = 1; sum lambda_p v_p[j] - s_j = target[j], each coordinate
    # row times the common denominator of its entries
    rows = [[1] * k + [0] * d + [1]]
    for j, tj in enumerate(tgt):
        row = [Fraction(c[j]) for c in cands] + [0] * d + [Fraction(tj)]
        row[k + j] = -1
        scale = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    return _feasible(rows)
