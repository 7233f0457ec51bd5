"""Answer digests and checks that need no recorded answer.

Digests make answers comparable with the recorded reference.  The checks
for query_huge recompute what they can without the program: |G| from
m^n n!/p, the ell-part of |G| from Legendre's formula, the product of a
printed factorization and the order of a rendered Sylow term.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import factorial

NAMED_ORDERS = {"Q8": 8, "SD16": 16, "Sp4_3_Sylow3": 81, "Q8xQ8_swap": 128}


def digest(answer) -> str:
    text = answer if isinstance(answer, str) else json.dumps(answer, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cli_answer(argv: list[str], stdout: str):
    """The answer inside a command's JSON output, in the form the in-process
    request returns it."""
    if argv[0] == "tables":
        return stdout.rstrip("\n")
    payload = json.loads(stdout)
    if argv[0] == "sylow":
        return payload["structure"]
    return payload


def valuation(ell: int, x: int) -> int:
    """ell-adic valuation by repeated squaring: O(log v) big-integer steps."""
    powers = [ell]
    while x % powers[-1] == 0:
        powers.append(powers[-1] * powers[-1])
    v = 0
    for k in range(len(powers) - 2, -1, -1):
        if x % powers[k] == 0:
            x //= powers[k]
            v += 1 << k
    return v


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, int(q**0.5) + 1))


def factorization_value(text: str) -> int:
    """Value of "2^7*3^2*5", checking ascending distinct primes."""
    value, last = 1, 1
    for part in text.split("*"):
        base, _, exp = part.partition("^")
        q, e = int(base), int(exp or 1)
        if q <= last or not _is_prime(q) or e < 1:
            raise ValueError(f"bad factorization {text!r}")
        value *= q**e
        last = q
    return value


_ATOMS = (
    (re.compile(r"C(\d+)$"), lambda g: int(g[0])),
    (re.compile(r"A\((\d+),(\d+),(\d+)\)$"), lambda g: int(g[0]) ** int(g[2]) // int(g[1])),
    (re.compile(r"W\((\d+),(\d+)\)$"),
     lambda g: int(g[0]) ** ((int(g[0]) ** int(g[1]) - 1) // (int(g[0]) - 1))),
    (re.compile(r"E\((\d+)\^(\d+)\)$"), lambda g: int(g[0]) ** int(g[1])),
)


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def term_order(text: str) -> int:
    """Order of a rendered structure term ("C2 x (A(9,3,2):sd:W(3,1))")."""
    text = text.strip()
    for sep in (" x ", ":sd:"):
        parts = _split_top(text, sep)
        if len(parts) > 1:
            out = 1
            for part in parts:
                out *= term_order(part)
            return out
    if text.startswith("(") and text.endswith(")"):
        return term_order(text[1:-1])
    if text == "1":
        return 1
    if text in NAMED_ORDERS:
        return NAMED_ORDERS[text]
    for pattern, order in _ATOMS:
        if m := pattern.match(text):
            return order(m.groups())
    raise ValueError(f"unknown structure term {text!r}")


def check_huge(key: str, mpn, partner_order: int, answer) -> str | None:
    """Problem with a query_huge answer, or None when it is consistent."""
    m, p, n = mpn
    order = m**n * factorial(n) // p * partner_order
    parts = key.split("|")
    try:
        if parts[0] == "sylow":
            ell = int(parts[2])
            want = ell ** valuation(ell, order)
            got = term_order(answer)
            return None if got == want else f"Sylow term order {got} != {want}"
        kind, ell = parts[1], int(parts[3])
        if factorization_value(answer["order_factored"]) != order:
            return "order_factored does not multiply out to |G|"
        if answer["ell"] != ell or answer["kind"] != kind:
            return "report is for another request"
        classes = answer["classes"]
        if not classes or (kind == "parabolic" and len(classes) != 1):
            return f"{len(classes)} minimal {kind} classes"
        full = valuation(ell, order)
        for c in classes:
            size = factorization_value(c["order_factored"])
            if order % size or valuation(ell, size) != full:
                return f"class {c['label']} of order {size} holds no Sylow subgroup"
        if kind == "parabolic" and answer["cuspidal"] != (size == order):
            return "cuspidal flag disagrees with the minimal parabolic order"
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed answer: {exc}"
    return None
