"""The benchmark tracer's contract with the program: every name it wraps
still exists, its counters read the oracle's outputs, and restore() puts
the originals back."""

from pathlib import Path

from sylowclass import verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_counts_one_group_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = verify.verify_group
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert verify.verify_group is not original
        report = verify.verify_group(2, 1, 3)
    finally:
        restored = tracer.restore()
    assert restored and verify.verify_group is original
    assert all(check.passed for check in report.checks)
    assert tracer.counts["oracle.reflection_subgroups"] > 0
    assert tracer.counts["oracle.fixed_spaces_distinct"] > 0
    layers = tracing.layer_metrics(tracer)
    assert layers["oracle.lattice_s"] > 0
