"""Command-line front end.

Subcommands:

    classify   minimal parabolic / reflection classes for a group and prime
    sylow      structure term for the ell-Sylow subgroups
    tables     regenerate one of the five embedded tables
    verify     oracle-vs-theorem campaign over the imprimitive grid

Exit codes: 0 success, 2 usage error, 3 domain error (prime does not
divide the order, unknown table row, a JSON answer too long to print, a
parameter that cannot be factored exactly, a product with more minimal
classes than are listed), 4 verification failure.  Results go to stdout,
diagnostics to stderr; an error is one "error:" line there, also when the
argument parser rejects an option (no usage lines).  The line keeps the
first ERROR_CHARS (200) characters of the message and then gives the
message's length, so a rejected input of thousands of digits is not echoed
whole.  A reader that closes
stdout early (`| head`) ends the command with exit code 141, as SIGPIPE
would, and no traceback.

Every command writes JSON through _json and markdown through _markdown;
classify and sylow pick their format in _print_reports.  A JSON answer
that holds an integer past Python's 4300-digit int-to-str limit (the
order of a Sylow subgroup or of a skipped group) prints nothing on
stdout: the command exits 3 with one stderr line that names --format
text, whose output prints such numbers factored or not at all.

Each rendered table is kept on the loaded tables (tables.Tables.renders)
and printed from there by later renders in the process;
tables.load_tables.cache_clear() drops it.  A repeated classify report is
one memo lookup and a copy of the report row, the one value a classify
answer keeps (classify.SubgroupClassResult.report_row; its members keep
none), and a memoized Sylow term renders its text once
(structure.render_term).

Each subcommand imports only the modules it runs.  `classify` on an
imprimitive group or a product of them loads neither the embedded tables
(`tables`, imported by an exceptional query) nor the Sylow terms
(`structure`, imported inside cmd_sylow); `tables` loads the tables and
not `structure`.  Only `verify` runs the oracle, and only it imports numpy
(through the `verify` module, imported inside cmd_verify).  `verify
--observation` checks closed forms only and imports neither; it reads
--max-m and --max-n, and any of --group, --ell, --max-order, --jobs,
--progress or --format json with it is a usage error.  `verify --group`
checks one group, and --max-m or --max-n with it is a usage error.  The
json module is imported by _json, so text and markdown output never load
it.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import classify as cls
from . import groups
from .classify import NotADivisorError, UnsupportedGroupError
from .groups import (GroupParseError, TableLookupError, format_factorization,
                     format_group, order_factored, order_factorization,
                     parse_group)
from .limits import DEFAULT_MAX_M, DEFAULT_MAX_N, DEFAULT_ORDER_CAP
# perfbench/tracing.py wraps cli.prime_factors, so the name stays here.
from .valuation import FactorizationError, is_prime, prime_factors  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4
EXIT_BROKEN_PIPE = 128 + 13  # 128 + SIGPIPE, the shell's code for a closed pipe
ERROR_CHARS = 200  # an error line keeps this much of its message
MAX_ELLS = 1000  # the most primes one `--ell all` may expand to


class UsageError(ValueError):
    """A bad option value the argument parser cannot check by itself."""


class PrimeLimitError(ValueError):
    """`--ell all` names more than MAX_ELLS primes."""


def _positive_int(number: int, source: str) -> int:
    if number < 1:
        raise UsageError(f"{source} must be a positive integer, got {number!r}")
    return number


# ---------------------------------------------------------------------------
# output


class DigitLimitError(ValueError):
    """A JSON answer holds an integer past Python's int-to-str digit limit."""


def _json(payload) -> str:
    import json  # about 1.3 ms; text and markdown output never need it

    try:
        return json.dumps(payload, indent=2)
    except ValueError:  # an int past the limit; text output prints it factored
        raise DigitLimitError("a number has too many decimal digits for JSON; "
                              "use --format text") from None


def _markdown(columns, rows) -> str:
    """A pipe table: the header, a --- rule, then one line of cells per row."""
    lines = ["| " + " | ".join(columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    lines += ["| " + " | ".join(map(str, cells)) + " |" for cells in rows]
    return "\n".join(lines)


def _print_reports(args, reports, columns, cells, text_lines) -> None:
    """classify and sylow output in args.format.  In JSON, one numbered
    prime prints its report as an object and --ell all prints a list."""
    if args.format == "json":
        lines = [_json(reports if args.ell == "all" else reports[0])]
    elif args.format == "markdown":
        lines = [_markdown(columns, map(cells, reports))]
    else:
        lines = [line for r in reports for line in text_lines(r)]
    if lines:  # text on a group of order 1 has none
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# classify


def classification_report(g, ell: int, kind: str) -> dict:
    """One classify answer of kind PARABOLIC or REFLECTION as a fresh dict:
    one memo lookup, and a copy of the row that the answer keeps
    (classify.SubgroupClassResult.report_row).  Any other kind raises
    ValueError before the lookup."""
    if kind == cls.PARABOLIC:
        answer = cls.classify_parabolic(g, ell)
    elif kind == cls.REFLECTION:
        answer = cls.classify_reflection(g, ell)
    else:
        raise ValueError(f"kind must be {cls.PARABOLIC!r} or {cls.REFLECTION!r}, "
                         f"got {kind!r}")
    group, order, classes, cuspidal, supercuspidal = answer.report_row
    return {
        "group": group,
        "order_factored": order,
        "ell": ell,
        "kind": kind,
        "classes": [{"label": label, "order_factored": member_order, "twist_index": twist}
                    for label, member_order, twist in classes],
        "cuspidal": cuspidal,
        "supercuspidal": supercuspidal,
    }


def _classify_text(report: dict) -> list[str]:
    lines = [
        f"{report['group']} (order {report['order_factored']}), "
        f"ell = {report['ell']}, kind = {report['kind']}",
        f"  classes: {len(report['classes'])}",
    ]
    for c in report["classes"]:
        twist = "" if c["twist_index"] is None else f"  twist {c['twist_index']}"
        lines.append(f"    {c['label']}  order {c['order_factored']}{twist}")
    lines.append(
        f"  cuspidal: {report['cuspidal']}  supercuspidal: {report['supercuspidal']}")
    return lines


def _classify_cells(r: dict) -> list:
    return [r["group"], r["ell"], r["kind"], ", ".join(c["label"] for c in r["classes"]),
            ", ".join(c["order_factored"] for c in r["classes"]),
            r["cuspidal"], r["supercuspidal"]]


def cmd_classify(args) -> int:
    g = parse_group(args.group)
    reports = [classification_report(g, ell, args.kind)
               for ell in _resolve_ells(g, args.ell)]
    _print_reports(args, reports, ["group", "ell", "kind", "classes", "orders",
                                   "cuspidal", "supercuspidal"],
                   _classify_cells, _classify_text)
    return EXIT_OK


def _resolve_ells(g, ell_arg: str) -> list[int]:
    if ell_arg == "all":
        primes = groups.group_primes(g)
        if len(primes) > MAX_ELLS:
            raise PrimeLimitError(f"--ell all names {len(primes)} primes, more than "
                                  f"{MAX_ELLS}; give one prime with --ell")
        return primes
    ell = int(ell_arg)
    cls.require_divides(g, ell)
    return [ell]


# ---------------------------------------------------------------------------
# sylow


def cmd_sylow(args) -> int:
    from . import structure

    g = parse_group(args.group)
    ells = _resolve_ells(g, args.ell)
    exponents = dict(order_factorization(g))
    reports = []
    for ell in ells:
        term = structure.sylow_structure(g, ell)
        reports.append({
            "group": format_group(g),
            "ell": ell,
            "structure": structure.render_term(term),
            "order": structure.structure_order(term),
            "order_factored": format_factorization(((ell, exponents[ell]),)),
        })
    _print_reports(
        args, reports, ["group", "ell", "sylow structure", "order"],
        lambda r: [r["group"], r["ell"], r["structure"], r["order_factored"]],
        lambda r: [f"Syl_{r['ell']}({r['group']}) = {r['structure']}, "
                   f"order {r['order_factored']}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables


def _exceptional_label(st: int) -> str:
    name = format_group(groups.Exceptional(st), classical=True)
    return f"G{st}" if name == f"G{st}" else f"G{st}={name}"


def _cross_check_row(row) -> None:
    """Regeneration guard: every concrete row must agree with the
    classifier, which reads the same data; a mismatch means drift."""
    classify = cls.classify_parabolic if row.table == "t1" else cls.classify_reflection
    want = [(m.display(), m.order) for m in row.members]
    for ell in row.ell_list:
        got = [(m.display_label, m.order) for m in classify(row.group, ell).members]
        if got != want:
            raise RuntimeError(f"table drift for G{row.group.st} ell={ell}: {got} != {want}")


def _family_row(row, **extra) -> dict:
    return {"group": row.group_label, "ell": row.ell_condition,
            "members": row.members[0].label, "member_order": row.orders_text, **extra}


def _concrete_row(row, member_order: str, **extra) -> dict:
    """An exceptional group's row, once _cross_check_row has passed."""
    _cross_check_row(row)
    return {"group": _exceptional_label(row.group.st),
            "group_order": order_factored(row.group), "ell": row.ell,
            "members": " and ".join(m.display() for m in row.members),
            "member_order": member_order, **extra}


def generate_table(table_key: str) -> list[dict]:
    """Rows of one table, regenerated from the data plus classifier
    cross-checks; keys depend on the table."""
    from . import tables

    tabs = tables.load_tables()
    if table_key == "parabolic":
        family = [_family_row(row, group_order="", cuspidal=row.note)
                  for row in tabs.family("t1")]
        return family + [
            _concrete_row(row, row.members[0].order_text,
                          cuspidal=row.ell in tabs.cuspidal_primes(row.group.st))
            for row in tabs.concrete("t1")]
    if table_key in ("cuspidal", "supercuspidal"):
        # same row shape; each table lists its family rows first
        return [{"group": (row.group_label if row.is_family
                           else _exceptional_label(row.group.st)),
                 "ell": (row.ell_condition if row.is_family
                         else ",".join(map(str, row.ell_list))),
                 "group_order": row.orders_text}
                for row in tabs.table("t2" if table_key == "cuspidal" else "t4")]
    if table_key == "reflection":
        family = [_family_row(row, group_order="", count=row.count_text)
                  for row in tabs.family("t3")]
        concrete = sorted(tabs.concrete("t3b") + tabs.concrete("t3"),
                          key=lambda row: (row.group.st, row.ell))
        return family + [
            _concrete_row(row, " and ".join(m.order_text.replace("x", "*")
                                            for m in row.members),
                          count=len(row.members))
            for row in concrete]
    if table_key == "nonunique":
        out = [_family_row(row, count=row.count_text) for row in tabs.family("t5")]
        # Regenerate the concrete rows from the reflection tables: every
        # (group, prime) whose minimal reflection class is not a single
        # class, one row per member type.
        for st in sorted(tabs.orders):
            for ell in groups.group_primes(groups.Exceptional(st)):
                result = cls.classify_reflection(groups.Exceptional(st), ell)
                if result.class_count <= 1:
                    continue
                by_label: dict[str, list] = {}
                for m in result.members:
                    by_label.setdefault(m.label, []).append(m)
                for label, ms in by_label.items():
                    out.append({
                        "group": _exceptional_label(st),
                        "ell": ell,
                        "members": label,
                        "member_order": format_factorization(ms[0].factors),
                        "count": len(ms),
                    })
        return out
    raise TableLookupError(f"unknown table id {table_key!r}")


_TABLE_COLUMNS = {
    "parabolic": ["group", "group_order", "ell", "members", "member_order", "cuspidal"],
    "cuspidal": ["group", "ell", "group_order"],
    "reflection": ["group", "group_order", "ell", "members", "member_order", "count"],
    "supercuspidal": ["group", "ell", "group_order"],
    "nonunique": ["group", "ell", "members", "member_order", "count"],
}
TABLE_NAMES = tuple(_TABLE_COLUMNS)


def render_table(table_key: str, fmt: str) -> str:
    """One table as JSON (fmt "json") or markdown (fmt "markdown"); any
    other fmt raises ValueError.

    The first render of a (table, format) pair runs the regeneration guard
    (and, for cuspidal JSON, check_consistency) and keeps the text on the
    loaded tables; later renders return it.  A failed render keeps
    nothing."""
    from . import tables

    if fmt not in ("json", "markdown"):
        raise ValueError(f"table format must be json or markdown, got {fmt!r}")
    renders = tables.load_tables().renders
    text = renders.get((table_key, fmt))
    if text is None:
        text = renders[table_key, fmt] = _render_table(table_key, fmt)
    return text


def _render_table(table_key: str, fmt: str) -> str:
    rows = generate_table(table_key)
    if fmt == "markdown":
        cols = _TABLE_COLUMNS[table_key]
        return _markdown(cols, ([row[c] for c in cols] for row in rows))
    payload: dict = {"table": table_key, "rows": rows}
    if table_key == "cuspidal":
        from . import tables

        report = tables.check_consistency()
        payload["anomalies"] = [
            {"id": a.anomaly_id, "detail": a.detail} for a in report.findings
            if a.anomaly_id in tables.KNOWN_ANOMALY_IDS
        ]
    return _json(payload)


def cmd_tables(args) -> int:
    print(render_table(args.id, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _print_progress(report, seconds: float) -> None:
    """verify --progress: one stderr line per finished group, its order
    factored (a skipped order may have too many digits for str)."""
    order = order_factored(groups.Imprimitive(report.m, report.p, report.n))
    print(f"{report.label} order {order}: {seconds:.2f} s, "
          f"{len(report.checks)} checks" + (" (skipped)" if report.skipped else ""),
          file=sys.stderr, flush=True)


def _grid_bounds(args) -> tuple[int, int]:
    """--max-m and --max-n, each defaulted when absent."""
    return (_positive_int(DEFAULT_MAX_M if args.max_m is None else args.max_m, "--max-m"),
            _positive_int(DEFAULT_MAX_N if args.max_n is None else args.max_n, "--max-n"))


def cmd_verify(args) -> int:
    if args.observation:  # closed forms only, over the --max-m/--max-n catalog
        unused = [option for option, value in (
            ("--group", args.group), ("--ell", args.ell), ("--max-order", args.max_order),
            ("--jobs", args.jobs), ("--progress", args.progress or None)) if value is not None]
        if args.format == "json":
            unused.append("--format json")
        if unused:
            raise UsageError(f"--observation does not take {', '.join(unused)}")
        catalog = list(cls.catalog_irreducibles(*_grid_bounds(args)))
        violations = cls.verify_observation(catalog)
        pairs = sum(len(groups.group_primes(g)) for g in catalog)
        print(f"observation check: {len(catalog)} groups, {pairs} (group, ell) "
              f"pairs, {len(violations)} violations")
        for v in violations:
            print(f"  VIOLATION {format_group(v.group)} ell={v.ell} "
                  f"P = {format_group(v.parabolic)}")
        return EXIT_OK if not violations else EXIT_VERIFY

    if args.group:  # one group: the grid bounds would be dropped without a word
        unused = [option for option, value in (
            ("--max-m", args.max_m), ("--max-n", args.max_n)) if value is not None]
        if unused:
            raise UsageError(f"--group does not take {', '.join(unused)}")
    if args.jobs is not None:
        _positive_int(args.jobs, "--jobs")
    from . import verify  # imports the oracle, and with it numpy

    cap = _positive_int(DEFAULT_ORDER_CAP if args.max_order is None else args.max_order,
                        "--max-order")
    ell = args.ell or "all"
    ells = None if ell == "all" else [int(ell)]
    if args.group:
        g = groups.normalize(parse_group(args.group))
        if not isinstance(g, groups.Imprimitive):
            raise UnsupportedGroupError(
                "the oracle only enumerates imprimitive groups G(m,p,n)")
        points = [(g.m, g.p, g.n)]
        ells = _resolve_ells(g, ell)
    else:
        points = verify.grid_points(*_grid_bounds(args), cap)
    report = verify.run_campaign(points, ells, cap, jobs=args.jobs,
                                 progress=_print_progress if args.progress else None)
    if args.format == "json":
        print(_json(report.as_dict()))
    else:
        for r in report.reports:
            for line in r.lines():  # a trivial group has none
                print(line)
        print(report.summary())
    return EXIT_OK if report.all_passed else EXIT_VERIFY


# ---------------------------------------------------------------------------


def _ell_arg(value: str) -> str:
    if value == "all":
        return value
    try:
        ell = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"ell must be a prime or 'all', got {value!r}")
    try:
        prime = is_prime(ell)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not prime:
        raise argparse.ArgumentTypeError(f"ell must be prime, got {ell}")
    return value


class _Parser(argparse.ArgumentParser):
    """Its rejections (and those of its subcommand parsers) raise
    UsageError, which main prints as one error line without the usage."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sylowclass",
        description="Minimal parabolic/reflection classes containing Sylow "
                    "subgroups of unitary reflection groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify P_ell or R_ell")
    p.add_argument("--group", required=True, help="group spec, e.g. G(12,6,3) or G28")
    p.add_argument("--ell", type=_ell_arg, required=True, help="prime or 'all'")
    p.add_argument("--kind", choices=["parabolic", "reflection"],
                   default="parabolic")
    p.add_argument("--format", choices=["text", "json", "markdown"],
                   default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sylow", help="ell-Sylow structure term")
    p.add_argument("--group", required=True)
    p.add_argument("--ell", type=_ell_arg, required=True)
    p.add_argument("--format", choices=["text", "json", "markdown"],
                   default="text")
    p.set_defaults(func=cmd_sylow)

    p = sub.add_parser("tables", help="regenerate an embedded table")
    p.add_argument("--id", required=True, choices=sorted(TABLE_NAMES),
                   help="which table")
    p.add_argument("--format", choices=["markdown", "json"], default="markdown")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="oracle-vs-theorem campaign")
    p.add_argument("--group", help="verify a single G(m,p,n)")
    p.add_argument("--ell", type=_ell_arg)  # absent: every prime
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--max-order", type=int, default=None,
                   help=f"enumeration cap (default {DEFAULT_ORDER_CAP})")
    p.add_argument("--max-m", type=int, default=None,
                   help=f"grid bound on m (default {DEFAULT_MAX_M}; not with --group)")
    p.add_argument("--max-n", type=int, default=None,
                   help=f"grid bound on n (default {DEFAULT_MAX_N}; not with --group)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes, at least 1 (default: cpu count)")
    p.add_argument("--progress", action="store_true",
                   help="write one line per finished group to stderr")
    p.add_argument("--observation", action="store_true",
                   help="check the cuspidal-to-supercuspidal observation "
                        "over the catalog bounded by --max-m and --max-n")
    p.set_defaults(func=cmd_verify)
    return parser


def _error(exc: Exception, code: int) -> int:
    """Print exc as the one stderr line of an error, its message cut to
    ERROR_CHARS characters; return code."""
    text = str(exc)
    if len(text) > ERROR_CHARS:
        text = f"{text[:ERROR_CHARS]}... ({len(text)} characters in all)"
    print(f"error: {text}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except (GroupParseError, UsageError) as exc:
        return _error(exc, EXIT_USAGE)
    except (NotADivisorError, TableLookupError, UnsupportedGroupError,
            FactorizationError, DigitLimitError, PrimeLimitError) as exc:
        return _error(exc, EXIT_DOMAIN)
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # exit stays quiet (the recipe of the SIGPIPE note in Python's docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
