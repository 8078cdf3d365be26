#!/usr/bin/env python3
"""Cross-validate the identity checker against the substitution falsifier.

Sweeps random enriched identities over two letters and reports any
disagreement between the structural decision procedure and brute-force
search for a separating assignment.

Usage: python3 scripts/identity_sweep.py [--rounds N] [--budget B] [--seed S]

Exits 0 when the two agree on every identity, 1 when they disagree on
any, and 2 on a usage error, such as a budget below 1.
"""

import argparse
import random
import sys

from adequa.algebra import Flavor
from adequa.identities import (
    IdentitySpec,
    check_enriched_flad1,
    falsify_by_substitution,
)
from adequa.reproduce import random_term
from adequa.terms import term_length, term_to_str


def budget(text: str) -> int:
    # a budget below 1 tries no assignment, so every rejected identity
    # would read as a disagreement
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=500)
    ap.add_argument("--budget", type=budget, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    done = satisfied = disagreements = 0
    while done < args.rounds:
        u, v = random_term(rng), random_term(rng)
        if term_length(u) > 6 or term_length(v) > 6:
            continue
        spec = IdentitySpec(u, v)
        verdict = check_enriched_flad1(spec).satisfied
        witness = falsify_by_substitution(spec, Flavor.LEFT, budget=args.budget)
        if verdict != (witness is None):
            disagreements += 1
            print(
                "DISAGREEMENT: %s ~ %s (checker=%s)"
                % (term_to_str(u), term_to_str(v), verdict)
            )
        satisfied += 1 if verdict else 0
        done += 1
    print(
        "%d identities checked: %d satisfied, %d disagreements"
        % (done, satisfied, disagreements)
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
