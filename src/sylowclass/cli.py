"""Command-line front end.

Subcommands:

    classify   minimal parabolic / reflection classes for a group and prime
    sylow      structure term for the ell-Sylow subgroups
    tables     regenerate one of the five embedded tables
    verify     oracle-vs-theorem campaign over the imprimitive grid

Exit codes: 0 success, 2 usage error, 3 domain error (prime does not
divide the order, unknown table row), 4 verification failure.  Results go
to stdout, diagnostics to stderr.  SYLOW_ORACLE_CAP overrides the default
enumeration cap of 20000.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classify as cls
from . import groups, oracle, structure, tables, verify
from .classify import NotADivisorError, UnsupportedGroupError
from .groups import (GroupParseError, format_factorization, format_group,
                     order_factored, order_factorization, parse_group)
from .tables import TableLookupError
# perfbench/tracing.py wraps cli.prime_factors, so the name stays here.
from .valuation import is_prime, prime_factors  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4

TABLE_ALIASES = {
    "parabolic": ("t1",),
    "cuspidal": ("t2",),
    "reflection": ("t3", "t3b"),
    "supercuspidal": ("t4",),
    "nonunique": ("t5",),
}


class UsageError(ValueError):
    """A bad option value the argument parser cannot check by itself."""


def _order_cap(value, source: str) -> int:
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise UsageError(f"{source} must be a positive integer, got {value!r}")
    return cap


def default_order_cap() -> int:
    """SYLOW_ORACLE_CAP when set, else the oracle's default cap."""
    value = os.environ.get("SYLOW_ORACLE_CAP", "")
    if not value:
        return oracle.DEFAULT_ORDER_CAP
    return _order_cap(value, "SYLOW_ORACLE_CAP")


# ---------------------------------------------------------------------------
# classify


def classification_report(g, ell: int, kind: str) -> dict:
    parabolic = cls.classify_parabolic(g, ell)
    reflection = cls.classify_reflection(g, ell)
    result = parabolic if kind == "parabolic" else reflection
    return {
        "group": format_group(g),
        "order_factored": order_factored(g),
        "ell": ell,
        "kind": kind,
        "classes": [
            {
                "label": m.display(),
                "order_factored": format_factorization(m.factors),
                "twist_index": m.twist_exponent,
            }
            for m in result.members
        ],
        "cuspidal": parabolic.equals_whole_group,
        "supercuspidal": reflection.is_whole_single_class,
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


def _classify_markdown(reports: list[dict]) -> list[str]:
    lines = ["| group | ell | kind | classes | orders | cuspidal | supercuspidal |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for r in reports:
        labels = ", ".join(c["label"] for c in r["classes"])
        orders = ", ".join(c["order_factored"] for c in r["classes"])
        lines.append(
            f"| {r['group']} | {r['ell']} | {r['kind']} | {labels} | {orders} "
            f"| {r['cuspidal']} | {r['supercuspidal']} |")
    return lines


def cmd_classify(args) -> int:
    g = parse_group(args.group)
    ells = _resolve_ells(g, args.ell)
    reports = [classification_report(g, ell, args.kind) for ell in ells]
    if args.format == "json":
        payload = reports[0] if len(reports) == 1 and args.ell != "all" else reports
        print(json.dumps(payload, indent=2))
    elif args.format == "markdown":
        print("\n".join(_classify_markdown(reports)))
    else:
        for r in reports:
            print("\n".join(_classify_text(r)))
    return EXIT_OK


def _resolve_ells(g, ell_arg: str) -> list[int]:
    if ell_arg == "all":
        return groups.group_primes(g)
    cls.require_divides(g, int(ell_arg))
    return [int(ell_arg)]


# ---------------------------------------------------------------------------
# sylow


def cmd_sylow(args) -> int:
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
    if args.format == "json":
        payload = reports[0] if len(reports) == 1 and args.ell != "all" else reports
        try:
            text = json.dumps(payload, indent=2)
        except ValueError:  # an order past Python's int-to-str digit limit
            print("error: a Sylow order has too many decimal digits for JSON; "
                  "use --format text, which prints it factored", file=sys.stderr)
            return EXIT_DOMAIN
        print(text)
    elif args.format == "markdown":
        print("| group | ell | sylow structure | order |")
        print("| --- | --- | --- | --- |")
        for r in reports:
            print(f"| {r['group']} | {r['ell']} | {r['structure']} "
                  f"| {r['order_factored']} |")
    else:
        for r in reports:
            print(f"Syl_{r['ell']}({r['group']}) = {r['structure']}, "
                  f"order {r['order_factored']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables


def _exceptional_label(st: int) -> str:
    name = format_group(groups.Exceptional(st), classical=True)
    return f"G{st}" if name == f"G{st}" else f"G{st}={name}"


def _cross_check_row(row) -> None:
    """Regeneration guard: every concrete row must agree with the
    classifier, which reads the same data; a mismatch means drift."""
    st = row.group.st
    for ell in row.ell_list:
        if row.table == "t1":
            result = cls.classify_parabolic(row.group, ell)
        else:
            result = cls.classify_reflection(row.group, ell)
        got = [(m.display(), m.order) for m in result.members]
        want = [(m.display(), m.order) for m in row.members]
        if got != want:
            raise RuntimeError(f"table drift for G{st} ell={ell}: {got} != {want}")


def generate_table(table_key: str) -> list[dict]:
    """Rows of one table, regenerated from the data plus classifier
    cross-checks; keys depend on the table."""
    tabs = tables.load_tables()
    out: list[dict] = []
    if table_key == "parabolic":
        for row in tabs.family("t1"):
            out.append({
                "group": row.group_label, "ell": row.ell_condition,
                "members": row.members[0].label, "member_order": row.orders_text,
                "group_order": "", "cuspidal": row.note,
            })
        for row in tabs.concrete("t1"):
            _cross_check_row(row)
            cusp = row.ell in tabs.cuspidal_primes(row.group.st)
            out.append({
                "group": _exceptional_label(row.group.st),
                "group_order": order_factored(row.group),
                "ell": row.ell,
                "members": " and ".join(m.display() for m in row.members),
                "member_order": row.members[0].order_text,
                "cuspidal": cusp,
            })
    elif table_key == "cuspidal":
        for row in tabs.family("t2"):
            out.append({"group": row.group_label,
                        "ell": row.ell_condition, "group_order": row.orders_text})
        for row in tabs.concrete("t2"):
            out.append({
                "group": _exceptional_label(row.group.st),
                "ell": ",".join(map(str, row.ell_list)),
                "group_order": row.orders_text,
            })
    elif table_key == "reflection":
        for row in tabs.family("t3"):
            out.append({
                "group": row.group_label, "ell": row.ell_condition,
                "members": row.members[0].label, "member_order": row.orders_text,
                "group_order": "", "count": row.count_text,
            })
        concrete = []
        for table_id in ("t3b", "t3"):
            for row in tabs.concrete(table_id):
                _cross_check_row(row)
                concrete.append({
                    "group": _exceptional_label(row.group.st),
                    "group_order": order_factored(row.group),
                    "ell": row.ell,
                    "members": " and ".join(m.display() for m in row.members),
                    "member_order": " and ".join(
                        m.order_text.replace("x", "*") for m in row.members),
                    "count": len(row.members),
                    "_st": row.group.st,
                })
        concrete.sort(key=lambda r: (r["_st"], r["ell"]))
        for row in concrete:
            del row["_st"]
        out.extend(concrete)
    elif table_key == "supercuspidal":
        for row in tabs.table("t4"):
            out.append({
                "group": (row.group_label if row.is_family
                          else _exceptional_label(row.group.st)),
                "ell": (row.ell_condition if row.is_family
                        else ",".join(map(str, row.ell_list))),
                "group_order": row.orders_text,
            })
    elif table_key == "nonunique":
        for row in tabs.family("t5"):
            out.append({
                "group": row.group_label, "ell": row.ell_condition,
                "members": row.members[0].label, "member_order": row.orders_text,
                "count": row.count_text,
            })
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
    else:
        raise TableLookupError(f"unknown table id {table_key!r}")
    return out


_TABLE_COLUMNS = {
    "parabolic": ["group", "group_order", "ell", "members", "member_order", "cuspidal"],
    "cuspidal": ["group", "ell", "group_order"],
    "reflection": ["group", "group_order", "ell", "members", "member_order", "count"],
    "supercuspidal": ["group", "ell", "group_order"],
    "nonunique": ["group", "ell", "members", "member_order", "count"],
}


def render_table(table_key: str, fmt: str) -> str:
    rows = generate_table(table_key)
    if fmt == "json":
        payload: dict = {"table": table_key, "rows": rows}
        if table_key == "cuspidal":
            report = tables.check_consistency()
            payload["anomalies"] = [
                {"id": a.anomaly_id, "detail": a.detail} for a in report.findings
                if a.anomaly_id in tables.KNOWN_ANOMALY_IDS
            ]
        return json.dumps(payload, indent=2)
    cols = _TABLE_COLUMNS[table_key]
    lines = ["| " + " | ".join(cols) + " |",
             "| " + " | ".join("---" for _ in cols) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(str(row.get(c, "")) for c in cols) + " |")
    return "\n".join(lines)


def cmd_tables(args) -> int:
    print(render_table(args.id, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.observation:
        violations = verify.observation_report()
        print(f"observation check: {len(violations)} violations")
        for v in violations:
            print(f"  VIOLATION {format_group(v.group)} ell={v.ell} "
                  f"P = {format_group(v.parabolic)}")
        return EXIT_OK if not violations else EXIT_VERIFY

    cap = (_order_cap(args.max_order, "--max-order") if args.max_order is not None
           else default_order_cap())
    ells = None if args.ell == "all" else [int(args.ell)]
    if args.group:
        g = groups.normalize(parse_group(args.group))
        if not isinstance(g, groups.Imprimitive):
            raise UnsupportedGroupError(
                "the oracle only enumerates imprimitive groups G(m,p,n)")
        points = [(g.m, g.p, g.n)]
        ells = _resolve_ells(g, args.ell)
    else:
        points = verify.grid_points(args.max_m, args.max_n, cap)
    report = verify.run_campaign(points, ells, cap, jobs=args.jobs)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        for r in report.reports:
            print("\n".join(r.lines()))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--id", required=True, choices=sorted(TABLE_ALIASES),
                   help="which table")
    p.add_argument("--format", choices=["markdown", "json"], default="markdown")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="oracle-vs-theorem campaign")
    p.add_argument("--group", help="verify a single G(m,p,n)")
    p.add_argument("--ell", type=_ell_arg, default="all")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--max-order", type=int, default=None,
                   help="enumeration cap (default SYLOW_ORACLE_CAP or "
                        f"{oracle.DEFAULT_ORDER_CAP})")
    p.add_argument("--max-m", type=int, default=verify.DEFAULT_MAX_M)
    p.add_argument("--max-n", type=int, default=verify.DEFAULT_MAX_N)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: cpu count)")
    p.add_argument("--observation", action="store_true",
                   help="check the cuspidal-to-supercuspidal observation "
                        "over the whole catalog")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GroupParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotADivisorError, TableLookupError, UnsupportedGroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
