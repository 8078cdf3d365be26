"""Exact convex dominance, decided by two shortcuts or a small simplex.

`convex_dominates` first answers the two cases that need no tableau, on
the raw inputs: some candidate is at least the target in every coordinate
(True: that candidate with weight 1), or some target coordinate exceeds
that coordinate of every candidate (False: no convex combination passes
the maximum).  Only the rest, where a genuine mixture decides, builds the
phase-1 LP over Fractions.  Dimensions in this package are tiny (a
handful of letters, a few dozen candidate vectors), so a dense tableau
with Bland's rule is fast and exact.
"""

from __future__ import annotations

from fractions import Fraction


def _simplex_phase1(A: list[list[Fraction]], b: list[Fraction]) -> bool:
    """Is there x >= 0 with A x = b?  Minimizes the sum of artificials."""
    m = len(A)
    n = len(A[0]) if m else 0
    # ensure b >= 0 row by row
    rows = []
    for i in range(m):
        if b[i] < 0:
            rows.append(([-v for v in A[i]], -b[i]))
        else:
            rows.append((list(A[i]), b[i]))
    # tableau: columns = n original + m artificial, last = rhs
    T = [row + [Fraction(0)] * m + [rhs] for (row, rhs) in rows]
    for i in range(m):
        T[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]
    # objective row: minimize sum of artificials -> reduced costs
    obj = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            obj[j] -= T[i][j]
    for i in range(m):
        obj[n + i] = Fraction(0)  # basic columns carry zero reduced cost

    while True:
        # Bland: entering = lowest index with negative reduced cost
        enter = -1
        for j in range(n + m):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            # unbounded phase-1 objective cannot happen (bounded below by 0)
            raise ArithmeticError("phase-1 unbounded")
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [v - f * w for v, w in zip(T[i], T[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * w for v, w in zip(obj, T[leave])]
        basis[leave] = enter

    return -obj[-1] == 0


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
    cands = [list(map(Fraction, c)) for c in cands]
    tgt = list(map(Fraction, tgt))
    k = len(cands)
    # variables: lambda_1..k, slack s_1..d
    # sum lambda = 1; sum lambda_p v_p[j] - s_j = target[j]
    n = k + d
    A: list[list[Fraction]] = []
    b: list[Fraction] = []
    row = [Fraction(1)] * k + [Fraction(0)] * d
    A.append(row)
    b.append(Fraction(1))
    for j in range(d):
        row = [cands[p][j] for p in range(k)] + [Fraction(0)] * d
        row[k + j] = Fraction(-1)
        A.append(row)
        b.append(tgt[j])
    return _simplex_phase1(A, b)
