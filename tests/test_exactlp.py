"""Exact convex-dominance feasibility."""

import itertools
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from adequa import exactlp, identities
from adequa.exactlp import convex_dominates
from adequa.identities import IdentitySpec, check_enriched_flad1

from .test_trees import SRC


def brute_force_dominates(target, candidates, denom=12):
    """Grid search over rational convex weights with small denominators."""
    k = len(candidates)
    d = len(target)
    for weights in itertools.product(range(denom + 1), repeat=k):
        if sum(weights) != denom:
            continue
        combo = [
            sum(Fraction(w, denom) * Fraction(c[j]) for w, c in zip(weights, candidates))
            for j in range(d)
        ]
        if all(combo[j] >= target[j] for j in range(d)):
            return True
    return False


class TestBasics:
    def test_empty_candidates(self):
        assert not convex_dominates((0, 0), [])

    def test_single_candidate(self):
        assert convex_dominates((1, 2), [(1, 2)])
        assert convex_dominates((1, 2), [(3, 5)])
        assert not convex_dominates((1, 2), [(2, 0)])

    def test_mixture_needed(self):
        # neither candidate dominates alone; the midpoint does
        assert convex_dominates((1, 1), [(2, 0), (0, 2)])
        # but a target above the segment is infeasible
        assert not convex_dominates((2, 2), [(3, 0), (0, 3)])

    def test_dimension_mismatch(self):
        import pytest

        with pytest.raises(ValueError):
            convex_dominates((1,), [(1, 2)])
        # checked before the shortcuts: the first candidate dominates, but
        # the second has the wrong length
        with pytest.raises(ValueError):
            convex_dominates((1, 1), [(2, 2), (1,)])

    def test_fractional_inputs(self):
        assert convex_dominates(
            (Fraction(1, 2), Fraction(1, 2)), [(1, 0), (0, 1)]
        )
        assert not convex_dominates((Fraction(3, 4), 0.75), [(1, 0), (0, 1)])
        assert convex_dominates((0.25, 0.75), [(1, 0), (0, 1)])


def fraction_phase1(A: list[list[Fraction]], b: list[Fraction]) -> bool:
    """Is there x >= 0 with A x = b?  Minimizes the sum of artificials.

    The rational tableau with Bland's rule, kept as the oracle of the
    integer one in `exactlp`.
    """
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


def reference_dominates(target, candidates):
    """The phase-1 LP of convex dominance, solved with no shortcut."""
    k, d = len(candidates), len(target)
    A = [[Fraction(1)] * k + [Fraction(0)] * d]
    b = [Fraction(1)]
    for j in range(d):
        row = [Fraction(c[j]) for c in candidates] + [Fraction(0)] * d
        row[k + j] = Fraction(-1)
        A.append(row)
        b.append(Fraction(target[j]))
    return fraction_phase1(A, b)


def d12_pair(k, length, blocks):
    """u is `blocks` random plus-blocks of `length` letters over the first k
    letters; v is the same blocks in reverse order, so u = v holds."""
    rng = random.Random(1)
    words = ["".join(rng.choice("abcdefgh"[:k]) for _ in range(length)) for _ in range(blocks)]
    u = "".join("(%s)^+" % w for w in words)
    v = "".join("(%s)^+" % w for w in reversed(words))
    return u, v


def counting_feasible(monkeypatch):
    """Count the calls that build the integer tableau."""
    calls = []
    feasible = exactlp._feasible

    def counted(rows):
        calls.append(1)
        return feasible(rows)

    monkeypatch.setattr(exactlp, "_feasible", counted)
    return calls


ENTRY = st.integers(-6, 6) | st.fractions(-6, 6, max_denominator=4)
# a target and 1..8 candidates, all of one dimension 1..4
INSTANCES = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.tuples(*[ENTRY] * d), st.lists(st.tuples(*[ENTRY] * d), min_size=1, max_size=8)
    )
)


class TestAgainstSimplex:
    def test_seeded_sweep(self, monkeypatch):
        # every d = 1..4 and k = 1..8, int and Fraction entries; each way a
        # call can be decided must occur often enough to stay covered, and
        # only a genuine mixture may build the LP
        lp_calls = counting_feasible(monkeypatch)
        rng = random.Random(31)
        cases = {"dominates": 0, "out of reach": 0, "mixture": 0}
        for d in range(1, 5):
            for k in range(1, 9):
                for trial in range(40):
                    if trial % 2:
                        entry = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                    else:
                        entry = lambda: rng.randint(-3, 3)
                    target = tuple(entry() for _ in range(d))
                    cands = [tuple(entry() for _ in range(d)) for _ in range(k)]
                    want = reference_dominates(target, cands)
                    del lp_calls[:]
                    assert convex_dominates(target, cands) == want
                    if any(all(c[j] >= target[j] for j in range(d)) for c in cands):
                        cases["dominates"] += 1
                        assert want and not lp_calls
                    elif any(all(target[j] > c[j] for c in cands) for j in range(d)):
                        cases["out of reach"] += 1
                        assert not want and not lp_calls
                    else:
                        cases["mixture"] += 1
                        assert lp_calls == [1]
        assert min(cases.values()) >= 50, cases

    @given(INSTANCES)
    @settings(max_examples=300, deadline=None)
    def test_drawn_instances(self, case):
        target, cands = case
        assert convex_dominates(target, cands) == reference_dominates(target, cands)

    def test_every_call_of_a_d12_pair(self, monkeypatch):
        # the 320-character pair: each convex-dominance question the
        # enriched checker asks gets the oracle's answer, and no question
        # is asked twice (both directions ask the same 92)
        lp_calls = counting_feasible(monkeypatch)
        asked = []

        def recorded(target, candidates):
            got = convex_dominates(target, candidates)
            asked.append((target, candidates, got))
            return got

        monkeypatch.setattr(identities, "convex_dominates", recorded)
        assert check_enriched_flad1(IdentitySpec.parse(*d12_pair(6, 16, 16))).satisfied
        assert len(lp_calls) == 48
        assert len({(t, frozenset(c)) for t, c, _ in asked}) == len(asked) == 92
        for target, candidates, got in asked:
            assert got == reference_dominates(target, candidates), (target, candidates)


def test_d12_pair_decides_under_a_cpu_cap():
    # the 1152-character pair, in a child process whose CPU time alone is
    # capped: the integer tableau needs about 1 s of it, the rational one
    # needed 14 to 22 s on a 2-core Xeon
    u, v = d12_pair(8, 32, 32)

    def cap():
        resource.setrlimit(resource.RLIMIT_CPU, (6, 6))

    proc = subprocess.run(
        [sys.executable, "-m", "adequa.cli", "identity", "--monoid", "flad1", u, v],
        preexec_fn=cap,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    assert json.loads(proc.stdout)["satisfied"] is True


class TestAgainstBruteForce:
    def test_random_instances(self):
        rng = random.Random(23)
        for _ in range(300):
            d = rng.randint(1, 3)
            k = rng.randint(1, 3)
            target = tuple(rng.randint(-3, 3) for _ in range(d))
            cands = [
                tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)
            ]
            got = convex_dominates(target, cands)
            want = brute_force_dominates(target, cands)
            # the grid may miss feasible points but never invents them
            if want:
                assert got
            if not got:
                assert not want

    @given(
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=200)
    def test_certificates_are_sound(self, tx, ty, cands):
        # feasibility is monotone: relaxing the target preserves it
        target = (tx, ty)
        if convex_dominates(target, cands):
            assert convex_dominates((tx - 1, ty), cands)
            assert convex_dominates((tx, ty - 1), cands)
        else:
            assert not convex_dominates((tx + 1, ty), cands)

    def test_lp_reads_only_undominated_candidates(self, monkeypatch):
        # (2, 0) twice, and (1, -1) and (0, 1) below (2, 0) and (0, 2)
        built = []
        feasible = exactlp._feasible

        def recorded(rows):
            built.append(rows)
            return feasible(rows)

        monkeypatch.setattr(exactlp, "_feasible", recorded)
        assert convex_dominates((1, 1), [(2, 0), (0, 2), (2, 0), (1, -1), (0, 1)])
        assert not convex_dominates((2, 2), [(3, 0), (1, 0), (0, 3), (3, 0)])
        # two weights, two slacks and the right-hand side per row
        assert [len(rows[0]) for rows in built] == [5, 5]

    def test_dominated_candidate_is_redundant(self):
        rng = random.Random(29)
        for _ in range(100):
            target = tuple(rng.randint(-3, 3) for _ in range(2))
            cands = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(3)]
            lo = tuple(min(c[j] for c in cands) for j in range(2))
            assert convex_dominates(target, cands) == convex_dominates(
                target, cands + [lo]
            )
