"""sylowclass benchmark: three workloads, every answer checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it puts src/ on PYTHONPATH of
every process it starts.  With --trace 0 it prints the end-to-end metrics
of untraced runs, scaled by the host's speed (speed.py), with --trace 1
the per-layer metrics of a traced run (next to an untraced one, for the
overhead).  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.  The lines before it give each metric with its
unit, tail percentiles with their sample counts, fail_ratio and the run's
metadata.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import streams  # noqa: E402

NPROC = os.cpu_count() or 1
# Query workloads: QUERY_TURNS turns.  Each turn's client makes a fixed
# number of requests, those its workload's "rate" makes in a QUERY_TURNS-th
# of QUERY_SHARE of --seconds on the host used to build the benchmark, so
# that the same seed does the same work, and needs the same memory, on any
# host.
QUERY_TURNS = 4
QUERY_SHARE = 0.5
# Campaign workloads: turns of one campaign each, while another turn fits
# into --seconds, and at least MIN_CAMPAIGNS.
MIN_CAMPAIGNS = 3
SETUP_PER_TURN = 2
# Kernel runs per speed probe around a campaign (speed.py).  One run varies
# by about 20 % from the next, and a campaign, unlike a command or a window
# of requests, is one of only three or so timings in a run.
CAMPAIGN_PROBE_RUNS = 10
CHILD_LIMIT_S = 170
SETUP_CODE = "import sylowclass.cli, sylowclass.tables; sylowclass.tables.load_tables()"

WORKLOADS = {
    # Timed campaigns run in one process, on the core that the speed probes
    # read (speed.py); a pool's wall time would also measure how the shared
    # host schedules its workers.  The traced run's untraced twin uses nproc
    # workers, for verify.pool_efficiency.
    "verify_grid": {"mode": "campaign", "cap": 1000, "jobs": 1, "pool_jobs": NPROC},
    "query_mix": {"mode": "queries", "batch": streams.TABLE_EVERY, "min_requests": 2000,
                  "rate": 2400, "cli_lines": 40, "cli_window": 10},
    # query_huge's requests are big-integer arithmetic, which the host's
    # drift slows far less than it slows the speed kernel: scaled by it, they
    # spread more than unscaled (speed.py), so they are left unscaled.  A
    # window holds one request of each stratum, so its median and tail would
    # each rest on one stratum's request: request percentiles are taken over
    # the whole run instead.
    "query_huge": {"mode": "queries", "batch": streams.HUGE_BLOCK, "min_requests": 40,
                   "rate": 5, "scale_requests": False, "pool_latency": True,
                   "cli_lines": 3 * streams.HUGE_BLOCK},
}
# The self-test's sizes: a verify cap about 200 and about 20 queries.
TINY = {
    "verify_grid": {"cap": 200},
    "query_mix": {"batch": 5, "min_requests": 20, "rate": 0, "cli_lines": 2, "cli_window": 2},
    "query_huge": {"batch": 2, "min_requests": 8, "rate": 0, "cli_lines": 2},
}


def load_references() -> dict:
    return {name: json.loads((HERE / "reference" / f"{name}.json").read_text())
            for name in WORKLOADS}


# ---------------------------------------------------------------------------
# processes


def _process_tree(pid: int) -> list[int]:
    """pid and its descendants, from /proc."""
    tree, i = [pid], 0
    while i < len(tree):
        try:
            children = Path(f"/proc/{tree[i]}/task/{tree[i]}/children").read_text()
        except OSError:
            children = ""
        tree += [int(c) for c in children.split()]
        i += 1
    return tree


def _kill_tree(pid: int) -> None:
    for p in reversed(_process_tree(pid)):
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass


def spawn(argv: list[str], probe_runs: int = 0, limit: float = CHILD_LIMIT_S) -> dict:
    """Run one child to its end; wall time and the rusage of its own process
    tree from wait4, so that earlier children do not leak into the numbers.
    With probe_runs, the child's wall and CPU time are scaled by speed
    probes of that many kernel runs right before and after it (speed.py).  A child still running after
    `limit` seconds is killed with its workers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    before = speed.probe(probe_runs) if probe_runs else None
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    killer = threading.Timer(limit, _kill_tree, (proc.pid,))
    killer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    cpu = usage.ru_utime + usage.ru_stime
    if probe_runs:
        wall_f, cpu_f = speed.factors(before, speed.probe(probe_runs))
        wall, cpu = wall * wall_f, cpu * cpu_f
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "stdout": stdout.decode("utf-8", "replace"),
            "wall": wall, "cpu": cpu, "rss_mb": usage.ru_maxrss / 1024}


def sylowclass(argv: list[str], probe_runs: int = 0) -> dict:
    return spawn([sys.executable, "-m", "sylowclass", *argv], probe_runs)


def client(config: dict) -> tuple[dict, dict]:
    run = spawn([sys.executable, str(HERE / "client.py"), json.dumps(config)])
    if run["exit"] != 0:
        raise RuntimeError(f"client exited with {run['exit']}")
    return run, json.loads(run["stdout"].strip().splitlines()[-1])


def measure_setup(count: int) -> list[float]:
    """Scaled wall times of fresh interpreters that import sylowclass.cli
    and load the tables."""
    return [spawn([sys.executable, "-c", SETUP_CODE], probe_runs=1)["wall"]
            for _ in range(count)]


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, n): the highest percentile with at least 10
    samples beyond it, by nearest rank; the maximum when n <= 10."""
    values = sorted(samples)
    n = len(values)
    if n <= 10:
        return 100.0, values[-1], n
    return 100.0 * (n - 10) / n, values[n - 11], n


def windowed(samples: list[float], size: int) -> dict:
    """Timings of consecutive windows of `size` samples: the median over the
    windows of each window's sum, median and tail.  A window holds one of
    each kind of request that comes round at a fixed rate (a table render,
    a block of query_huge strata), so every window has the same mix."""
    windows = [samples[i:i + size] for i in range(0, len(samples) - size + 1, size)]
    windows = windows or [samples]
    tails = [tail(w) for w in windows]
    return {
        "sum": statistics.median(sum(w) for w in windows),
        "p50": statistics.median(statistics.median(w) for w in windows),
        "tail": statistics.median(t for _, t, _ in tails),
        "tail_at": (tails[0][0], len(windows[0])),
        "size": len(windows[0]),
        "windows": len(windows),
    }


# ---------------------------------------------------------------------------
# correctness


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def check_campaign(tally: Tally, ref: dict, cap: int, run: dict) -> int:
    """Compare a campaign's JSON with the recorded one, check by check; the
    reference was recorded at a higher cap, so only its groups up to `cap`
    are expected.  Returns the number of checks the output holds."""
    want = [g for g in ref["verify_grid"]["groups"] if g["order"] <= cap]
    tally.attempted += sum(max(1, len(g["checks"])) for g in want)
    if run["exit"] != 0:
        tally.fail(sum(len(g["checks"]) for g in want), f"verify exited with {run['exit']}")
        return 0
    try:
        got = {g["group"]: g for g in json.loads(run["output"])["groups"]}
    except (ValueError, KeyError) as exc:
        tally.fail(sum(len(g["checks"]) for g in want), f"unreadable verify output: {exc}")
        return 0
    for g in want:
        out = got.get(g["group"])
        if out is None or out["skipped"] != g["skipped"]:
            tally.fail(max(1, len(g["checks"])), f"{g['group']} missing or skip differs")
            continue
        out_checks = {(c["name"], c["ell"]): c for c in out["checks"]}
        for c in g["checks"]:
            o = out_checks.get((c["name"], c["ell"]))
            if o != c or not c["passed"]:
                tally.fail(1, f"{g['group']} {c['name']} ell={c['ell']}: {o} != {c}")
    extra = set(got) - {g["group"] for g in want}
    if extra:
        tally.fail(len(extra), f"unexpected groups {sorted(extra)[:5]}")
    return sum(len(g["checks"]) for g in got.values())


def check_answers(tally: Tally, ref_answers: dict, answers: dict, must_know: bool) -> None:
    """answers: key -> {digest: count}.  Each answer that differs from the
    recorded one fails; so does an unrecorded key when must_know is set."""
    for key, seen in answers.items():
        want = ref_answers.get(key)
        for d, count in seen.items():
            if want is None and not must_know:
                continue
            if d != want:
                tally.fail(count, f"{key}: answer {d} != recorded {want}")


# ---------------------------------------------------------------------------
# workloads


def campaign_argv(spec: dict, jobs: int) -> list[str]:
    return ["verify", "--max-order", str(spec["cap"]), "--ell", "all", "--format", "json",
            "--jobs", str(jobs)]


def run_campaign(spec, ref, tally, probe_runs: int = 0) -> dict:
    run = sylowclass(campaign_argv(spec, spec["jobs"]), probe_runs)
    run["output"] = run["stdout"]
    run["checks"] = check_campaign(tally, ref, spec["cap"], run)
    return run


def campaign_metrics(runs) -> tuple[dict, dict]:
    """Each campaign is one request and a window of one sample, so every
    timing is the median over the run's campaigns."""
    wall = windowed([r["wall"] for r in runs], 1)
    cpu = windowed([r["cpu"] for r in runs], 1)
    return {
        "wall_s": wall["sum"],
        "cpu_s": cpu["sum"],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "queries_per_s": statistics.median(r["checks"] for r in runs) / wall["sum"],
        "query_p50_us": wall["p50"] * 1e6,
        "query_tail_us": wall["tail"] * 1e6,
        "cli_p50_ms": wall["p50"] * 1e3,
        "cli_tail_ms": wall["tail"] * 1e3,
    }, {"query_tail": wall["tail_at"], "cli_tail": wall["tail_at"], "campaigns": len(runs)}


def query_config(name, spec, seed, seconds, trace, count=None, cli_keys=(), start=0) -> dict:
    return {"mode": "queries", "workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "count": count, "start": start, "batch": spec["batch"],
            "min_requests": spec["min_requests"],
            "cli_keys": list(cli_keys), "spans_path": str(spans_path(name, seed))}


def spans_path(name: str, seed: int) -> Path:
    out = ROOT / ".bench_trace"
    out.mkdir(exist_ok=True)
    return out / f"{name}-seed{seed}.json"


def cli_keys(name, spec, seed, ref) -> list:
    if name == "query_huge":
        return streams.huge_cli_lines(seed, spec["cli_lines"])
    keys = streams.mix_cli_lines(ref["query_mix"]["answers"], seed, spec["cli_lines"],
                                 spec["cli_window"])
    return [(k, None, None) for k in keys]


def check_query_client(tally, name, ref, out):
    tally.attempted += len(out["latencies"])
    for problem in out["problems"]:
        tally.fail(1, problem)
    check_answers(tally, ref[name]["answers"], out["answers"], must_know=name == "query_mix")


def run_query_client(name, spec, seed, seconds, ref, tally):
    run, out = client(query_config(name, spec, seed, seconds, False))
    check_query_client(tally, name, ref, out)
    return run, out


def run_turns(name, spec, seed, seconds, ref, tally) -> tuple[dict, dict, list, list]:
    """The workload's measurements, cut into turns that alternate over the
    run, so that a slow stretch of the host does not fall on all of one
    kind.  Each turn takes set-up samples, then for the campaign workload
    one campaign, and for the query workloads a fresh client that carries
    on the stream where the last one stopped, and a share of the command
    lines.  Every timing is scaled by the speed probes around it (speed.py):
    a campaign, a command and a set-up sample by those around the child,
    a request by those around its window, which the client takes."""
    out = {"latencies": [], "cpu": [], "campaigns": []}
    rss, cli_walls, setup = 0.0, [], []
    measure_setup(1)  # warm-up: byte-code compilation is not set-up time
    if spec["mode"] == "campaign":
        t0 = time.perf_counter()
        # Turns go on while another one fits into --seconds.
        while len(out["campaigns"]) < MIN_CAMPAIGNS or (
                time.perf_counter() - t0) * (1 + 1 / len(out["campaigns"])) <= seconds:
            setup += measure_setup(SETUP_PER_TURN)
            out["campaigns"].append(run_campaign(spec, ref, tally, CAMPAIGN_PROBE_RUNS))
        return {}, out, cli_walls, setup
    keys = cli_keys(name, spec, seed, ref)
    per_turn = -(-len(keys) // QUERY_TURNS)
    count = max(spec["min_requests"], spec["rate"] * seconds * QUERY_SHARE) / QUERY_TURNS
    count = -(-int(count) // spec["batch"]) * spec["batch"]
    for turn in range(QUERY_TURNS):
        setup += measure_setup(SETUP_PER_TURN)
        config = query_config(name, spec, seed, 0, False, count=count,
                              start=len(out["latencies"]))
        run, part = client(dict(config, probe=spec.get("scale_requests", True)))
        check_query_client(tally, name, ref, part)
        for k, i in enumerate(range(0, len(part["latencies"]), spec["batch"])):
            wall_f, cpu_f = speed.factors(*part["probes"][k:k + 2]) if part["probes"] else (1, 1)
            window = slice(i, i + spec["batch"])
            out["latencies"] += [t * wall_f for t in part["latencies"][window]]
            out["cpu"] += [c * cpu_f for c in part["cpu"][window]]
        rss = max(rss, run["rss_mb"])
        cli_walls += run_cli_lines(name, keys[turn * per_turn:(turn + 1) * per_turn], ref, tally)
    return {"rss_mb": rss}, out, cli_walls, setup


def query_metrics(spec, run, out) -> tuple[dict, dict]:
    lat = windowed(out["latencies"], spec["batch"])
    cpu = windowed(out["cpu"], spec["batch"])
    pct = windowed(out["latencies"], len(out["latencies"])) if spec.get("pool_latency") else lat
    return {
        "wall_s": lat["sum"],
        "cpu_s": cpu["sum"],
        "peak_rss_mb": run["rss_mb"],
        "queries_per_s": lat["size"] / lat["sum"],
        "query_p50_us": pct["p50"] * 1e6,
        "query_tail_us": pct["tail"] * 1e6,
    }, {"query_tail": pct["tail_at"], "requests": len(out["latencies"]),
        "windows": lat["windows"]}


def run_cli_lines(name, keys, ref, tally) -> list[float]:
    walls = []
    for key, mpn, partner in keys:
        argv = streams.cli_argv(key)
        run = sylowclass(argv, probe_runs=1)
        walls.append(run["wall"])
        tally.attempted += 1
        if run["exit"] != 0:
            tally.fail(1, f"{' '.join(argv)}: exit {run['exit']}")
            continue
        try:
            answer = checks.cli_answer(argv, run["stdout"])
        except (ValueError, KeyError) as exc:
            tally.fail(1, f"{' '.join(argv)}: unreadable output: {exc}")
            continue
        if mpn is not None and (problem := checks.check_huge(key, mpn, partner, answer)):
            tally.fail(1, f"{key}: {problem}")
        check_answers(tally, ref[name]["answers"], {key: {checks.digest(answer): 1}},
                      must_know=name == "query_mix")
    return walls


def end_to_end(name, spec, seed, seconds, ref, tally) -> tuple[dict, dict]:
    # The timed processes and the speed probes share one core (speed.py).
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        run, out, cli_walls, setup = run_turns(name, spec, seed, seconds, ref, tally)
    finally:
        os.sched_setaffinity(0, cores)
    if spec["mode"] == "campaign":
        metrics, info = campaign_metrics(out["campaigns"])
    else:
        metrics, info = query_metrics(spec, run, out)
        # Scaled, the command times need no windows against drift: the
        # median and tail are over all of the run's commands.
        cli = windowed(cli_walls, len(cli_walls))
        metrics["cli_p50_ms"] = cli["p50"] * 1e3
        metrics["cli_tail_ms"] = cli["tail"] * 1e3
        info["cli_tail"] = cli["tail_at"]
    metrics["setup_s"] = statistics.median(setup)
    info["setup_samples"] = len(setup)
    return metrics, info


def per_layer(name, spec, seed, seconds, ref, tally) -> tuple[dict, dict]:
    if spec["mode"] == "campaign":
        jobs = spec["pool_jobs"]
        untraced = run_campaign(dict(spec, jobs=jobs), ref, tally)
        # The traced campaign runs in one process.  Untraced, the same work
        # takes the one-process wall time, or for a pool its CPU time (which
        # two hyperthreads inflate by a few per cent); a second untraced
        # campaign in one process would take the run past its time limit.
        single = untraced["wall"] if jobs == 1 else untraced["cpu"]
        config = {"mode": "campaign", "trace": True, "argv": campaign_argv(spec, 1),
                  "spans_path": str(spans_path(name, seed))}
        traced_run, out = client(config)
        checks_done = check_campaign(tally, ref, spec["cap"], out)
        layers = dict(out["layers"])
        layers["verify.checks"] = checks_done
        layers["verify.pool_efficiency"] = untraced["cpu"] / (untraced["wall"] * jobs)
        layers["trace.overhead_s"] = traced_run["wall"] - single
        info = {"traced_wall_s": traced_run["wall"], "untraced_one_process_s": single}
    else:
        # The untraced twin gets the client time of an untraced run.
        _, out = run_query_client(name, spec, seed, seconds * QUERY_SHARE, ref, tally)
        keys = cli_keys(name, spec, seed, ref)
        config = query_config(name, spec, seed, seconds, True, count=len(out["latencies"]),
                              cli_keys=[k for k, _, _ in keys])
        _, traced = client(config)
        check_query_client(tally, name, ref, traced)
        tally.attempted += len(keys)
        for problem in traced["cli_problems"]:
            tally.fail(1, problem)
        check_answers(tally, ref[name]["answers"], traced["cli_answers"],
                      must_know=name == "query_mix")
        if traced["last_key"] != out["last_key"]:
            tally.fail(1, "traced client did not replay the untraced requests")
        layers = dict(traced["layers"])
        layers["verify.checks"] = 0
        layers["verify.pool_efficiency"] = 0.0  # no worker pool: the layer is not reached
        layers["trace.overhead_s"] = sum(traced["latencies"]) - sum(out["latencies"])
        info = {"requests": len(out["latencies"])}
        out = traced
    if not out["restored"]:
        tally.fail(1, "tracing wrappers did not restore the original functions")
    layers["cli.import_s"] = out["import_s"]
    layers["tables.load_s"] = out["load_s"]
    return layers, info


# ---------------------------------------------------------------------------
# metadata and output


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sylowclass").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_metadata(name, spec, seed, trace) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": name, "seed": seed, "trace": trace, "nproc": NPROC,
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy_version, "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "cap": spec.get("cap"), "jobs": spec.get("jobs", 1),
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        ref: dict | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    spec = dict(WORKLOADS[name], **(TINY[name] if tiny else {}))
    ref = load_references() if ref is None else ref
    tally = Tally()
    if trace:
        values, info = per_layer(name, spec, seed, seconds, ref, tally)
        wanted = benchmark_spec()["per_layer"]
    else:
        values, info = end_to_end(name, spec, seed, seconds, ref, tally)
        wanted = benchmark_spec()["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    lines = [f"# {name} seed={seed} trace={int(trace)}"]
    lines += [f"{k:32s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"{'fail_ratio':32s} {fail_ratio:.6g} ratio "
                 f"({tally.failed} of {tally.attempted})")
    for key, (p, n) in ((k, v) for k, v in info.items() if k.endswith("_tail")):
        lines.append(f"{key:32s} p{p:.3f} of windows of n={n}")
    lines += [f"{k:32s} {v}" for k, v in info.items() if not k.endswith("_tail")]
    lines += [f"problem: {p}" for p in tally.problems]
    lines.append("meta " + json.dumps(run_metadata(name, spec, seed, trace)))
    result = {"correct": tally.failed == 0, "attempted": max(1, tally.attempted),
              "failed": tally.failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sylowclass" / "cli.py").is_file():
        print(f"error: no sylowclass source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
