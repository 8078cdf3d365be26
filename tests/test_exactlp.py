"""Exact convex-dominance feasibility."""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from adequa.exactlp import _simplex_phase1, convex_dominates


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
    return _simplex_phase1(A, b)


class TestAgainstSimplex:
    def test_seeded_sweep(self, monkeypatch):
        # every d = 1..4 and k = 1..8, int and Fraction entries; each way a
        # call can be decided must occur often enough to stay covered, and
        # only a genuine mixture may build the LP
        from adequa import exactlp

        lp_calls = []

        def counted_phase1(A, b):
            lp_calls.append(1)
            return _simplex_phase1(A, b)

        monkeypatch.setattr(exactlp, "_simplex_phase1", counted_phase1)
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

    def test_dominated_candidate_is_redundant(self):
        rng = random.Random(29)
        for _ in range(100):
            target = tuple(rng.randint(-3, 3) for _ in range(2))
            cands = [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(3)]
            lo = tuple(min(c[j] for c in cands) for j in range(2))
            assert convex_dominates(target, cands) == convex_dominates(
                target, cands + [lo]
            )
