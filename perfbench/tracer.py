"""Span tracing of the package's layers, from outside the package.

:meth:`Tracer.install` replaces each function in ``TARGETS`` by a wrapper
in every ``adequa`` module namespace that holds it, so calls made through
a name imported with ``from .trees import validate`` are seen too.  Each
call becomes a span ``(name, start, end, parent)`` kept in memory;
:meth:`Tracer.write` saves them.  A span's self time is its duration
minus the time its child spans cover.  Everything runs in one thread and
nothing queues or retries, so no layer has waiting time to report.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

TARGETS = {
    "trees": ["validate", "canonical_code", "classify"],
    "retract": ["retract", "hom_exists", "find_foldable_branch", "is_retract_free"],
    "algebra": ["make_element", "multiply", "plus_op", "star_op", "eval_term"],
    "growth": [
        "structural_left_trees",
        "generic_left_trees",
        "two_sided_sphere",
        "zigzag_census",
    ],
    "terms": ["to_nonnested", "pqr_sets"],
    "exactlp": ["convex_dominates"],
    "identities": [
        "check_enriched_flad1",
        "check_fladX",
        "falsify_by_substitution",
        "random_monogenic_element",
        "_cached_eval",
    ],
}

ENUMERATORS = {"growth.generic_left_trees", "growth.two_sided_sphere", "growth.structural_left_trees"}


def _hom_exists(tr, args, result):
    tr.counts["folds"] += bool(result)


def _find_foldable_branch(tr, args, result):
    if tr.open_names and tr.open_names[-1] == "retract.retract":
        tr.counts["scans"] += 1


def _retract(tr, args, result):
    tr.counts["edges_deleted"] += args[0].edge_count - result.edge_count


def _is_retract_free(tr, args, result):
    if any(tr.active[name] for name in ENUMERATORS):
        tr.counts["candidates"] += 1


def _enumerator(tr, args, result):
    tr.counts["trees_out"] += len(result[0] if isinstance(result, tuple) else result)


HOOKS = {
    "retract.hom_exists": _hom_exists,
    "retract.find_foldable_branch": _find_foldable_branch,
    "retract.retract": _retract,
    "retract.is_retract_free": _is_retract_free,
    "growth.structural_left_trees": _enumerator,
    "growth.generic_left_trees": _enumerator,
    "growth.two_sided_sphere": _enumerator,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.open_names = []
        self.covered = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.active = Counter()
        self.counts = Counter()
        self.replaced = []

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "adequa" or n.startswith("adequa.")]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules["adequa." + mod_name]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap("%s.%s" % (mod_name, func), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.replaced.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self.replaced):
            setattr(mod, attr, original)
        self.replaced = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self.stack.append(idx)
            self.open_names.append(name)
            self.covered.append(0.0)
            self.active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.active[name] -= 1
                self.stack.pop()
                self.open_names.pop()
                child = self.covered.pop()
                if self.covered:
                    self.covered[-1] += end - start
                self.spans[idx] = (name, start, end, parent)
                self.calls[name] += 1
                self.self_s[name] += end - start - child
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n" % (i, name, start, end, parent))

    def metrics(self, cache_growth, cache_entries):
        """Per-layer metrics, as name -> (value, unit)."""
        c = self.calls
        s = self.self_s
        ratio = lambda a, b: a / b if b else 0.0
        m = {}
        for name in ("trees.validate", "trees.canonical_code"):
            m[name + ".calls"] = (c[name], "count")
            m[name + ".self_s"] = (s[name], "s")
        m["trees.validate.per_element"] = (
            ratio(c["trees.validate"], c["algebra.make_element"]),
            "calls/element",
        )
        m["trees.classify.calls"] = (c["trees.classify"], "count")
        for name in ("retract.retract", "retract.hom_exists", "retract.is_retract_free"):
            m[name + ".calls"] = (c[name], "count")
            m[name + ".self_s"] = (s[name], "s")
        m["retract.find_foldable_branch.calls"] = (c["retract.find_foldable_branch"], "count")
        m["retract.find_foldable_branch.self_s"] = (s["retract.find_foldable_branch"], "s")
        m["retract.fold_ratio"] = (ratio(self.counts["folds"], c["retract.hom_exists"]), "ratio")
        m["retract.scans_per_retract"] = (
            ratio(self.counts["scans"], c["retract.retract"]),
            "scans/retract",
        )
        m["retract.edges_deleted"] = (self.counts["edges_deleted"], "count")
        m["algebra.make_element.calls"] = (c["algebra.make_element"], "count")
        m["algebra.make_element.self_s"] = (s["algebra.make_element"], "s")
        for name in ("multiply", "plus_op", "star_op", "eval_term"):
            m["algebra.%s.calls" % name] = (c["algebra." + name], "count")
        m["algebra.eval_term.self_s"] = (s["algebra.eval_term"], "s")
        for name in TARGETS["growth"]:
            m["growth.%s.self_s" % name] = (s["growth." + name], "s")
        m["growth.trees_out"] = (self.counts["trees_out"], "count")
        m["growth.candidates_per_tree"] = (
            ratio(self.counts["candidates"], self.counts["trees_out"]),
            "calls/tree",
        )
        for name in ("terms.to_nonnested", "terms.pqr_sets", "exactlp.convex_dominates"):
            m[name + ".calls"] = (c[name], "count")
            m[name + ".self_s"] = (s[name], "s")
        for name in ("check_enriched_flad1", "check_fladX", "falsify_by_substitution"):
            m["identities.%s.self_s" % name] = (s["identities." + name], "s")
        m["identities.random_monogenic_element.calls"] = (
            c["identities.random_monogenic_element"],
            "count",
        )
        m["identities.random_monogenic_element.self_s"] = (
            s["identities.random_monogenic_element"],
            "s",
        )
        # each assignment the falsifier tries evaluates both sides once
        evals = c["identities._cached_eval"]
        m["identities.falsifier_assignments"] = (evals // 2, "count")
        m["identities.eval_cache_hit_ratio"] = (ratio(evals - cache_growth, evals), "ratio")
        m["identities.eval_cache_entries"] = (cache_entries, "count")
        return m
