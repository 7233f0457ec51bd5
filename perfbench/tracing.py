"""Spans around calls into sylowclass, installed from outside the program.

Each wrapper replaces the function at the name its caller looks up (a
module attribute or a class attribute) and records a span: name, parent,
start, end and the group or query id of the root span it runs under.
Spans stay in memory; the caller writes them out when the run ends.  Self
time is a span's duration minus the time its direct children cover (spans
nest, one thread records them).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager

NAME, PARENT, START, END, TAG = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._paused = False

    # -- recording -------------------------------------------------------

    def _open(self, name: str, tag=None) -> int:
        stack = self._stack
        parent = stack[-1] if stack else None
        if tag is None and parent is not None:
            tag = self.spans[parent][TAG]
        self.spans.append([name, parent, time.perf_counter(), None, tag])
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag=None):
        index = self._open(name, tag)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def counting(self):
        """Work done only to count outputs: a span of its own, so that it is
        left out of its parent's self time, with recording paused inside."""
        index = self._open("trace.count")
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
            self._close(index)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None, tag=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            index = tracer._open(name, tag(args) if tag else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                with tracer.counting():
                    on_result(tracer.counts, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when each name holds it again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(getattr(owner, attr) is original
                 for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path) -> None:
        """Spans as [name index, parent, start ns, end ns, tag index], with
        times from the first span's start."""
        names: dict[str, int] = {}
        tags: dict[object, int] = {}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[names.setdefault(s[NAME], len(names)), s[PARENT],
                 round((s[START] - t0) * 1e9), round((s[END] - t0) * 1e9),
                 tags.setdefault(s[TAG], len(tags))] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns", "tag"],
                       "names": list(names), "tags": list(tags), "spans": rows,
                       "counts": dict(self.counts)}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# What is wrapped, and the counts taken from outputs


def _count_group(counts, args, group) -> None:
    counts["oracle.groups"] += 1
    counts["oracle.elements"] += group.size


def _count_lattice(counts, args, records) -> None:
    import numpy as np

    group = args[0]
    refl = group.reflection_indices()
    is_refl = np.zeros(group.size, dtype=bool)
    is_refl[refl] = True
    counts["oracle.reflections"] += len(refl)
    counts["oracle.reflection_subgroups"] += len(records)
    counts["oracle.lattice_new"] += len(records) - 1
    counts["oracle.closures"] += sum(
        len(refl) - int(is_refl[rec.idx].sum()) for rec in records)


def _count_parabolic(counts, args, classes) -> None:
    group = args[0]
    counts["oracle.fixed_spaces_distinct"] += len(
        {sp.vectors for sp in group.fixed_spaces()})
    counts["oracle.parabolic_subgroups"] += sum(c.size for c in classes)
    counts["oracle.classes"] += len(classes)


def _count_classes(counts, args, classes) -> None:
    counts["oracle.classes"] += len(classes)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from sylowclass import cli, classify, groups, oracle, structure, tables, valuation, verify

    w = tracer.wrap
    w(verify, "verify_group", "verify.group", tag=lambda a: f"G({a[0]},{a[1]},{a[2]})")
    w(oracle, "enumerate_group", "oracle.enumerate", on_result=_count_group)
    w(oracle.ConcreteGroup, "fixed_spaces", "oracle.fixed_spaces")
    w(oracle, "parabolic_classes", "oracle.parabolic", on_result=_count_parabolic)
    w(oracle, "all_reflection_subgroups", "oracle.lattice", on_result=_count_lattice)
    w(oracle, "reflection_subgroup_classes", "oracle.partition", on_result=_count_classes)
    w(oracle, "minimal_full_valuation", "oracle.minimal")
    w(oracle, "sylow_construct", "oracle.sylow")
    w(oracle, "identify_class", "oracle.identify")
    w(classify, "classify_parabolic", "classify")
    w(classify, "classify_reflection", "classify")
    w(structure, "classify_reflection", "classify")
    w(tables, "lookup", "tables.lookup")
    w(structure, "sylow_structure", "structure.sylow")
    w(groups, "order_factored", "groups.order_factored")
    w(cli, "order_factored", "groups.order_factored")
    w(valuation, "prime_factors", "valuation.prime_factors")
    w(cli, "prime_factors", "valuation.prime_factors")
    w(verify, "prime_factors", "valuation.prime_factors")


ORACLE_STAGES = {
    "oracle.enumerate_s": "oracle.enumerate",
    "oracle.fixed_spaces_s": "oracle.fixed_spaces",
    "oracle.parabolic_s": "oracle.parabolic",
    "oracle.lattice_s": "oracle.lattice",
    "oracle.partition_s": "oracle.partition",
    "oracle.minimal_s": "oracle.minimal",
    "oracle.sylow_s": "oracle.sylow",
    "oracle.identify_s": "oracle.identify",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the spans and counts of one traced run."""
    spans = tracer.spans
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def duration(i):
        return spans[i][END] - spans[i][START]

    def outermost(name):
        return [i for i in by_name.get(name, ())
                if spans[i][PARENT] is None or spans[spans[i][PARENT]][NAME] != name]

    def mean(indices, scale):
        return sum(map(duration, indices)) / len(indices) * scale if indices else 0.0

    def under(i, name):
        while (i := spans[i][PARENT]) is not None:
            if spans[i][NAME] == name:
                return True
        return False

    out = {key: sum(own[i] for i in by_name.get(name, ()))
           for key, name in ORACLE_STAGES.items()}
    counts = tracer.counts
    for key in ("groups", "elements", "reflections", "reflection_subgroups",
                "closures", "fixed_spaces_distinct", "parabolic_subgroups", "classes"):
        out[f"oracle.{key}"] = counts[f"oracle.{key}"]
    closures = counts["oracle.closures"]
    out["oracle.closure_yield"] = counts["oracle.lattice_new"] / closures if closures else 0.0
    spaces = counts["oracle.fixed_spaces_distinct"]
    out["oracle.stabilizer_yield"] = (
        counts["oracle.parabolic_subgroups"] / spaces if spaces else 0.0)

    classify_calls = outermost("classify")
    out["verify.theorem_s"] = sum(
        duration(i) for i in classify_calls if under(i, "verify.group"))
    out["classify.calls"] = len(classify_calls)
    out["classify.call_us"] = mean(classify_calls, 1e6)
    lookups = by_name.get("tables.lookup", [])
    out["tables.lookup_calls"] = len(lookups)
    out["tables.lookup_us"] = mean(lookups, 1e6)
    out["structure.sylow_us"] = mean(outermost("structure.sylow"), 1e6)
    factored = by_name.get("groups.order_factored", [])
    out["groups.order_factored_calls"] = len(factored)
    out["groups.order_factored_us"] = mean(factored, 1e6)
    primes = by_name.get("valuation.prime_factors", [])
    out["valuation.prime_factors_calls"] = len(primes)
    out["valuation.prime_factors_s"] = sum(map(duration, primes))
    out["cli.main_ms"] = mean(by_name.get("cli.main", []), 1e3)
    return out
