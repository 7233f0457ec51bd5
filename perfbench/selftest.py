"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced with a verify cap of 200 and about
20 queries.  It checks that every metric named in BENCHMARK.json is
emitted with its unit, that the checked-out code answers correctly, that
a corrupted reference answer raises fail_ratio above 0, and that the
tracing wrappers put the original functions back.  Exits 1 on a failure.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import streams  # noqa: E402
import tracing  # noqa: E402

SECONDS = 0
SEED = 1  # the query_huge reference seed, so its answers are compared too


def check_metrics(result: dict, wanted: list[dict]) -> None:
    assert list(result["metrics"]) == [m["name"] for m in wanted], result["metrics"].keys()
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], float), (m, got)


def corrupt(ref: dict, name: str) -> dict:
    """A copy of the references with the first answer this run checks
    changed."""
    bad = copy.deepcopy(ref)
    if name == "verify_grid":
        entry = next(g for g in bad["verify_grid"]["groups"] if g["checks"])
        entry["checks"][0]["detail"] += " (corrupted)"
        return bad
    if name == "query_mix":
        key = next(streams.mix_stream(bad["query_mix"]["answers"], SEED))
    else:
        key = next(streams.huge_stream(SEED))[0]
    bad[name]["answers"][key] = "0" * 16
    return bad


def check_restore() -> None:
    from sylowclass import classify, oracle, verify

    before = (verify.verify_group, oracle.ConcreteGroup.fixed_spaces,
              classify.classify_parabolic)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert verify.verify_group is not before[0]
    assert tracer.restore()
    after = (verify.verify_group, oracle.ConcreteGroup.fixed_spaces,
             classify.classify_parabolic)
    assert all(a is b for a, b in zip(before, after))


def main() -> int:
    spec = run.benchmark_spec()
    ref = run.load_references()
    check_restore()
    for name in run.WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, lines = run.run(name, SEED, SECONDS, trace, tiny=True, ref=ref)
            check_metrics(result, wanted)
            assert result["failed"] == 0 and result["correct"], "\n".join(lines)
            if trace and name == "verify_grid":
                layers = result["metrics"]
                assert layers["oracle.groups"]["value"] > 0
                assert layers["verify.checks"]["value"] > 0
        bad, lines = run.run(name, SEED, SECONDS, False, tiny=True, ref=corrupt(ref, name))
        assert bad["failed"] > 0 and not bad["correct"], "\n".join(lines)
        print(f"ok {name}: {result['attempted']} checked, corrupted reference "
              f"gives fail_ratio {bad['failed'] / bad['attempted']:.3g}")
    print(json.dumps({"selftest": "passed"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
