"""The benchmark's workloads, one cycle each at their smoke sizes.

perfbench/ reaches the package through module attributes and calls
(two_sided_sphere(n)[0], is_retract_free(..., engine="generic"), the
falsifier caches); a change to one of them fails here.
"""

import json
import os
import random
import sys

import pytest

from adequa import identities

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)

with open(os.path.join(PERFBENCH, "spec.json")) as fh:
    SPEC = json.load(fh)["workloads"]


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads


@pytest.fixture
def fresh_caches():
    identities._POOL_CACHE.clear()
    identities._EVAL_CACHE.clear()
    yield
    identities._POOL_CACHE.clear()
    identities._EVAL_CACHE.clear()


@pytest.mark.parametrize("name", sorted(SPEC))
def test_one_cycle_passes_its_checks(workloads, fresh_caches, name):
    wl = workloads.WORKLOADS[name](SPEC[name]["smoke"]["sizes"])
    ops = wl.ops(random.Random(1))
    for _ in range(wl.cycle):
        op = next(ops)
        assert op.check(op.call()) == "", op.kind
