"""Acceptance gate: one check per published target, one verdict line each.

Each case runs one `reproduce.TARGETS` entry, prints a single pass/fail
line, then asserts, so the printed table survives in captured output on
failure and under `pytest -s` on success.  A target added to `TARGETS` is
gated here with no further edit.
"""

import time

import pytest

from adequa import reproduce

# seconds a target may take before its criterion fails
TIME_CAPS = {"left-sphere-sizes": 120, "two-sided-table": 60, "retraction-oracle": 300}


CASES = [(num, name, fn) for num, (name, _, fn) in enumerate(reproduce.TARGETS, 1)]


@pytest.mark.parametrize("num, name, fn", CASES, ids=["%02d-%s" % c[:2] for c in CASES])
def test_criterion(num, name, fn):
    t0 = time.time()
    ok, detail = fn()
    elapsed = time.time() - t0
    notes = [] if ok else [detail]
    if name in TIME_CAPS:
        ok = ok and elapsed < TIME_CAPS[name]
        notes.append("%.1fs" % elapsed)
    line = "criterion %2d [%s]: %s" % (num, name, "PASS" if ok else "FAIL")
    if notes:
        line += " (%s)" % "; ".join(notes)
    print(line)
    assert ok, line
