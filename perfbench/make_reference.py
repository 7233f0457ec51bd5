"""Record the reference answers every benchmark run is compared with.

    python3 perfbench/make_reference.py [verify_grid] [query_mix] [query_huge]

Run it from the root of a checkout of the commit whose answers are the
reference; it rewrites perfbench/reference/*.json.  The recorded answers
belong to that commit, not to whatever is checked out later: do not
re-record them to make a later commit pass.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import streams  # noqa: E402

# verify_grid's reference is recorded at the default cap of the grid, above
# the workload's cap, so that a later cap can be checked against it too.
GRID_REFERENCE_CAP = 5000
# Products in the query_mix universe: a fixed pool, so that every key any
# seed can draw has a recorded answer.
MIX_PRODUCTS = 60
MIX_CATALOG = (12, 6)
# query_huge keys are new for every seed; the reference seed's first ones
# are recorded, every other answer is checked by checks.check_huge.
HUGE_REFERENCE_SEED = 1
HUGE_RECORDED = 120
HUGE_CLI_RECORDED = 40


def write(name: str, payload: dict) -> None:
    path = HERE / "reference" / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


def record_grid() -> None:
    spec = dict(run.WORKLOADS["verify_grid"], cap=GRID_REFERENCE_CAP)
    result = run.sylowclass(run.campaign_argv(spec, spec["jobs"]))
    if result["exit"] != 0:
        raise SystemExit(f"verify_grid: verify exited with {result['exit']}")
    write("verify_grid", json.loads(result["stdout"]))


def mix_universe() -> list[str]:
    from sylowclass import classify, groups

    catalog = list(classify.catalog_irreducibles(*MIX_CATALOG))
    rng = random.Random("query_mix:universe")
    products = set()
    while len(products) < MIX_PRODUCTS:
        products.add(groups.product_of(rng.sample(catalog, rng.choice((2, 3)))))
    keys = [streams.table_key(t) for t in streams.TABLE_IDS]
    for g in catalog + sorted(products, key=groups.format_group):
        spec = groups.format_group(g)
        if groups.parse_group(spec) != g:
            continue
        primes = groups.group_primes(g)
        for kind in ("parabolic", "reflection"):
            keys += [streams.report_key(kind, spec, ell) for ell in primes + ["all"]]
        keys += [streams.sylow_key(spec, ell) for ell in primes]
    return keys


def record_mix() -> None:
    import client

    requests = client.Requests()
    answers, dropped = {}, {}
    for key in mix_universe():
        try:
            answers[key] = checks.digest(requests.prepare(key)())
        except Exception as exc:  # requests that fail are left out of the workload
            dropped[key] = f"{type(exc).__name__}: {exc}"
    write("query_mix", {"answers": answers, "dropped": dropped,
                        "catalog": list(MIX_CATALOG), "products": MIX_PRODUCTS})


def record_huge() -> None:
    import client

    requests = client.Requests()
    stream = streams.huge_stream(HUGE_REFERENCE_SEED)
    items = [next(stream) for _ in range(HUGE_RECORDED)]
    items += streams.huge_cli_lines(HUGE_REFERENCE_SEED, HUGE_CLI_RECORDED)
    answers = {}
    for key, mpn, partner in items:
        value = requests.prepare(key)()
        problem = checks.check_huge(key, mpn, partner, value)
        if problem:
            raise SystemExit(f"{key}: {problem}")
        answers[key] = checks.digest(value)
    write("query_huge", {"seed": HUGE_REFERENCE_SEED, "answers": answers})


def main() -> int:
    recorders = {"verify_grid": record_grid, "query_mix": record_mix, "query_huge": record_huge}
    for name in sys.argv[1:] or recorders:
        recorders[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
