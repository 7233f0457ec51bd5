"""One benchmark client process: answers a query stream, or runs one
campaign through cli.main, optionally under tracing.

    python3 perfbench/client.py '<json config>'

run.py starts it with src/ on PYTHONPATH and reads one JSON object from
the last line of its standard output.  It measures each request and
reports the answers' digests; run.py compares them with the reference.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import streams  # noqa: E402
import tracing  # noqa: E402


def _requests(config):
    """(key, m/p/n, partner order) triples of the workload's stream."""
    if config["workload"] == "query_huge":
        yield from streams.huge_stream(config["seed"])
        return
    universe = json.loads((HERE / "reference" / "query_mix.json").read_text())["answers"]
    for key in streams.mix_stream(universe, config["seed"]):
        yield key, None, None


class Requests:
    """Turns a key into a call of the program's public functions.  Group
    specs are parsed once, outside the timed call: they are the input."""

    def __init__(self):
        from sylowclass import cli, groups, structure

        self.cli, self.groups, self.structure = cli, groups, structure
        self._groups: dict[str, object] = {}

    def _group(self, spec):
        g = self._groups.get(spec)
        if g is None:
            g = self._groups[spec] = self.groups.parse_group(spec)
        return g

    def prepare(self, key: str):
        cli, structure = self.cli, self.structure
        parts = key.split("|")
        if parts[0] == "table":
            return lambda: cli.render_table(parts[1], "json")
        if parts[0] == "sylow":
            g, ell = self._group(parts[1]), int(parts[2])
            return lambda: structure.render_term(structure.sylow_structure(g, ell))
        _, kind, spec, ell = parts
        g = self._group(spec)
        # The primes are resolved as `sylowclass classify` resolves them.
        if ell == "all":
            return lambda: [cli.classification_report(g, e, kind)
                            for e in cli._resolve_ells(g, ell)]
        return lambda: cli.classification_report(g, cli._resolve_ells(g, ell)[0], kind)


def run_queries(config, tracer) -> dict:
    requests = Requests()
    stream = _requests(config)
    for _ in range(config["start"]):
        next(stream)
    count = config.get("count")
    deadline = time.perf_counter() + config["seconds"]
    latencies, cpu = [], []
    # With "probe", speed.probe runs before the first window of requests
    # and after each window, so that run.py can scale each window.
    probes = [speed.probe()] if config.get("probe") else None
    answers: dict[str, dict[str, int]] = {}
    problems: list[str] = []
    while True:
        key, mpn, partner = next(stream)
        call = requests.prepare(key)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                answer = call()
            else:
                with tracer.span("query", tag=key):
                    answer = call()
        except Exception as exc:  # a failed request is counted, the run goes on
            answer = None
            problems.append(f"{key}: {type(exc).__name__}: {exc}")
        t1, c1 = time.perf_counter(), time.process_time()
        latencies.append(t1 - t0)
        cpu.append(c1 - c0)
        if answer is not None:
            seen = answers.setdefault(key, {})
            d = checks.digest(answer)
            seen[d] = seen.get(d, 0) + 1
            if mpn is not None and (problem := checks.check_huge(key, mpn, partner, answer)):
                problems.append(f"{key}: {problem}")
        if probes is not None and len(latencies) % config["batch"] == 0:
            probes.append(speed.probe())
        if count is not None:
            if len(latencies) >= count:
                break
        elif (t1 >= deadline and len(latencies) >= config["min_requests"]
              and len(latencies) % config["batch"] == 0):
            break
    return {"latencies": latencies, "cpu": cpu, "probes": probes, "answers": answers,
            "problems": problems, "last_key": key}


def run_cli_in_process(config, tracer) -> dict:
    """The workload's command lines through cli.main, stdout captured."""
    from sylowclass import cli

    answers, problems = {}, []
    for key in config.get("cli_keys", []):
        argv = streams.cli_argv(key)
        buf = io.StringIO()
        with redirect_stdout(buf), tracer.span("cli.main", tag=key):
            code = cli.main(argv)
        if code != 0:
            problems.append(f"{' '.join(argv)}: exit {code}")
            continue
        answers.setdefault(key, {})[checks.digest(checks.cli_answer(argv, buf.getvalue()))] = 1
    return {"cli_answers": answers, "cli_problems": problems}


def run_campaign(config, tracer) -> dict:
    from sylowclass import cli

    buf = io.StringIO()
    with redirect_stdout(buf), tracer.span("cli.main", tag="campaign"):
        code = cli.main(config["argv"])
    return {"exit": code, "output": buf.getvalue()}


def main() -> int:
    config = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import sylowclass.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    from sylowclass import tables

    t0 = time.perf_counter()
    tables.load_tables()
    load_s = time.perf_counter() - t0

    tracer = None
    if config["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = {"import_s": import_s, "load_s": load_s}
    try:
        if config["mode"] == "campaign":
            out.update(run_campaign(config, tracer))
        else:
            out.update(run_queries(config, tracer))
            if tracer is not None:
                out.update(run_cli_in_process(config, tracer))
    finally:
        if tracer is not None:
            out["restored"] = tracer.restore()
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        tracer.write(config["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
