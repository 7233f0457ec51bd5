"""The benchmark's recorded answers, recomputed.

perfbench/reference/query_mix.json and query_huge.json map request keys
(report|kind|group|ell, sylow|group|ell, table|id) to digests of the
answers the program gave when they were recorded.  Every key is recomputed
here through the public functions, so a change to a closed form that the
benchmark would reject fails these tests first.
"""

import hashlib
import json
from pathlib import Path

import pytest

from sylowclass import cli, structure
from sylowclass.groups import parse_group

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def digest(answer) -> str:
    """First 16 hex digits of the sha256 of the answer, or of its JSON with
    sorted keys, as the benchmark records them."""
    text = answer if isinstance(answer, str) else json.dumps(answer, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def answer(key: str):
    kind, *args = key.split("|")
    if kind == "table":
        return cli.render_table(args[0], "json")
    if kind == "sylow":
        spec, ell = args
        return structure.render_term(structure.sylow_structure(parse_group(spec), int(ell)))
    report_kind, spec, ell = args
    g = parse_group(spec)
    reports = [cli.classification_report(g, e, report_kind)
               for e in cli._resolve_ells(g, ell)]
    return reports if ell == "all" else reports[0]


@pytest.mark.parametrize("name", ["query_mix", "query_huge"])
def test_recorded_answers(name):
    recorded = json.loads((REFERENCE / f"{name}.json").read_text())["answers"]
    mismatched = [key for key, d in recorded.items() if digest(answer(key)) != d]
    assert not mismatched, f"{len(mismatched)} of {len(recorded)}: {mismatched[:5]}"
