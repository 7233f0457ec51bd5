import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sylowclass
from sylowclass import classify as cls
from sylowclass import cli, groups, oracle, structure, valuation, verify
from sylowclass.groups import parse_group
from sylowclass.tables import load_tables


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassifyCommand:
    def test_reflection_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--group", "G(12,6,3)",
                           "--ell", "2", "--kind", "reflection")
        assert code == 0
        assert "classes: 3" in out
        assert "G(4,2,3)" in out
        assert "2^6*3" in out
        assert "supercuspidal: False" in out

    def test_exceptional_reflection(self, capsys):
        code, out, _ = run(capsys, "classify", "--group", "G28", "--ell", "3",
                           "--kind", "reflection", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["classes"] == [
            {"label": "A2^2", "order_factored": "2^2*3^2", "twist_index": None}]
        assert report["cuspidal"] is True

    def test_parabolic(self, capsys):
        code, out, _ = run(capsys, "classify", "--group", "G(6,1,5)",
                           "--ell", "5", "--kind", "parabolic", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["classes"][0]["label"] == "G(1,1,5)"
        assert report["cuspidal"] is False

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "classify", "--group", "G(12,6,3)",
                           "--ell", "2", "--kind", "reflection", "--format", "json")
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report

    def test_ell_all(self, capsys):
        code, out, _ = run(capsys, "classify", "--group", "G(12,6,3)",
                           "--ell", "all", "--format", "json")
        reports = json.loads(out)
        assert [r["ell"] for r in reports] == [2, 3]

    @pytest.mark.parametrize("kind", ["Parabolic", "REFLECTION", "cuspidal", "", None])
    def test_report_of_another_kind_raises_before_any_lookup(self, kind):
        # it once returned the reflection answer under any kind but "parabolic"
        g = parse_group("G(12,6,3)")
        lookups = [fn.cache_info() for fn in (cls.classify_parabolic, cls.classify_reflection)]
        with pytest.raises(ValueError) as info:
            cli.classification_report(g, 2, kind)
        assert repr(cls.PARABOLIC) in str(info.value)
        assert repr(cls.REFLECTION) in str(info.value)
        assert [fn.cache_info() for fn in (cls.classify_parabolic,
                                           cls.classify_reflection)] == lookups

    def test_markdown(self, capsys):
        code, out, _ = run(capsys, "classify", "--group", "H3", "--ell", "all",
                           "--format", "markdown")
        assert code == 0
        assert out.startswith("| group |")


class TestSylowCommand:
    def test_examples(self, capsys):
        code, out, _ = run(capsys, "sylow", "--group", "G12", "--ell", "2")
        assert code == 0 and "SD16" in out and "2^4" in out
        code, out, _ = run(capsys, "sylow", "--group", "G(1,1,6)", "--ell", "2")
        assert "C2 x W(2,2)" in out
        code, out, _ = run(capsys, "sylow", "--group", "G(8,1,1)", "--ell", "2")
        assert "C8" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sylow", "--group", "G25", "--ell", "3",
                           "--format", "json")
        report = json.loads(out)
        assert report["structure"] == "Sp4_3_Sylow3"
        assert report["order"] == 81


# The bytes each format writes, recorded from the command line: one
# numbered prime (an object in JSON) and --ell all (a list).  On these
# groups the reflection answer is the parabolic one with its kind renamed.
_PINNED_CLASSIFY = {
    ("G(2,1,2)", "2", "text"): """\
G(2,1,2) (order 2^3), ell = 2, kind = parabolic
  classes: 1
    G(2,1,2)  order 2^3
  cuspidal: True  supercuspidal: True
""",
    ("G(2,1,2)", "2", "json"): """\
{
  "group": "G(2,1,2)",
  "order_factored": "2^3",
  "ell": 2,
  "kind": "parabolic",
  "classes": [
    {
      "label": "G(2,1,2)",
      "order_factored": "2^3",
      "twist_index": null
    }
  ],
  "cuspidal": true,
  "supercuspidal": true
}
""",
    ("G(2,1,2)", "2", "markdown"): """\
| group | ell | kind | classes | orders | cuspidal | supercuspidal |
| --- | --- | --- | --- | --- | --- | --- |
| G(2,1,2) | 2 | parabolic | G(2,1,2) | 2^3 | True | True |
""",
    ("G4 x G4", "all", "text"): """\
G4^2 (order 2^6*3^2), ell = 2, kind = parabolic
  classes: 1
    G4^2  order 2^6*3^2
  cuspidal: True  supercuspidal: True
G4^2 (order 2^6*3^2), ell = 3, kind = parabolic
  classes: 1
    G(3,1,1)^2  order 3^2
  cuspidal: False  supercuspidal: False
""",
    ("G4 x G4", "all", "json"): """\
[
  {
    "group": "G4^2",
    "order_factored": "2^6*3^2",
    "ell": 2,
    "kind": "parabolic",
    "classes": [
      {
        "label": "G4^2",
        "order_factored": "2^6*3^2",
        "twist_index": null
      }
    ],
    "cuspidal": true,
    "supercuspidal": true
  },
  {
    "group": "G4^2",
    "order_factored": "2^6*3^2",
    "ell": 3,
    "kind": "parabolic",
    "classes": [
      {
        "label": "G(3,1,1)^2",
        "order_factored": "3^2",
        "twist_index": null
      }
    ],
    "cuspidal": false,
    "supercuspidal": false
  }
]
""",
    ("G4 x G4", "all", "markdown"): """\
| group | ell | kind | classes | orders | cuspidal | supercuspidal |
| --- | --- | --- | --- | --- | --- | --- |
| G4^2 | 2 | parabolic | G4^2 | 2^6*3^2 | True | True |
| G4^2 | 3 | parabolic | G(3,1,1)^2 | 3^2 | False | False |
""",
}

_PINNED_SYLOW = {
    ("G(2,1,2)", "2", "text"): "Syl_2(G(2,1,2)) = A(2,1,2):sd:C2, order 2^3\n",
    ("G(2,1,2)", "2", "json"): """\
{
  "group": "G(2,1,2)",
  "ell": 2,
  "structure": "A(2,1,2):sd:C2",
  "order": 8,
  "order_factored": "2^3"
}
""",
    ("G(2,1,2)", "2", "markdown"): """\
| group | ell | sylow structure | order |
| --- | --- | --- | --- |
| G(2,1,2) | 2 | A(2,1,2):sd:C2 | 2^3 |
""",
    ("G4 x G4", "all", "text"): """\
Syl_2(G4^2) = Q8 x Q8, order 2^6
Syl_3(G4^2) = C3 x C3, order 3^2
""",
    ("G4 x G4", "all", "json"): """\
[
  {
    "group": "G4^2",
    "ell": 2,
    "structure": "Q8 x Q8",
    "order": 64,
    "order_factored": "2^6"
  },
  {
    "group": "G4^2",
    "ell": 3,
    "structure": "C3 x C3",
    "order": 9,
    "order_factored": "3^2"
  }
]
""",
    ("G4 x G4", "all", "markdown"): """\
| group | ell | sylow structure | order |
| --- | --- | --- | --- |
| G4^2 | 2 | Q8 x Q8 | 2^6 |
| G4^2 | 3 | C3 x C3 | 3^2 |
""",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("kind", ["parabolic", "reflection"])
    @pytest.mark.parametrize("spec, ell, fmt", sorted(_PINNED_CLASSIFY))
    def test_classify(self, capsys, spec, ell, fmt, kind):
        code, out, err = run(capsys, "classify", "--group", spec, "--ell", ell,
                             "--kind", kind, "--format", fmt)
        want = _PINNED_CLASSIFY[spec, ell, fmt].replace("parabolic", kind)
        assert (code, out, err) == (0, want, "")

    @pytest.mark.parametrize("spec, ell, fmt", sorted(_PINNED_SYLOW))
    def test_sylow(self, capsys, spec, ell, fmt):
        code, out, err = run(capsys, "sylow", "--group", spec, "--ell", ell,
                             "--format", fmt)
        assert (code, out, err) == (0, _PINNED_SYLOW[spec, ell, fmt], "")

    @pytest.mark.parametrize("command, header", [
        ("classify", "| group | ell | kind | classes | orders | cuspidal | supercuspidal |\n"
                     "| --- | --- | --- | --- | --- | --- | --- |\n"),
        ("sylow", "| group | ell | sylow structure | order |\n| --- | --- | --- | --- |\n"),
    ])
    def test_group_of_order_one(self, capsys, command, header):
        # no prime divides |G(1,1,1)|: text prints nothing, JSON an empty list
        for fmt, want in [("text", ""), ("json", "[]\n"), ("markdown", header)]:
            assert run(capsys, command, "--group", "G(1,1,1)", "--ell", "all",
                       "--format", fmt) == (0, want, ""), fmt

    def test_table_head(self, capsys):
        code, out, _ = run(capsys, "tables", "--id", "nonunique", "--format", "markdown")
        assert code == 0
        assert out.splitlines()[:3] == [
            "| group | ell | members | member_order | count |",
            "| --- | --- | --- | --- | --- |",
            "| G(m,p,n) | l_div_p | G(l^v(m),l^v(p),n) | l^(n*v(m)-v(p))*n! "
            "| gcd(p/l^v(p),n) |"]


class TestExitCodes:
    def test_usage_error_bad_group(self, capsys):
        # unparsable (a final newline, non-ASCII digits and brackets
        # included), and parsable with parameters no G(m,p,n) has
        for spec in ["Gnope", "G4\n", "G(12,6,3)\n", "A\uff12", "[G4]",
                     "G(\uff11\uff12,\uff16,\uff13)", "G(3,2,3)", "G(0,1,1)"]:
            code, _, err = run(capsys, "classify", "--group", spec, "--ell", "2")
            assert code == 2, spec
            assert "error" in err and err.count("\n") == 1, spec

    def test_long_error_message_is_cut(self, capsys):
        code, out, err = run(capsys, "classify", "--group", "G4", "--ell", "7" * 5000)
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("error: argument --ell: ell must be a prime or 'all', got '777")
        assert err.endswith("7... (5052 characters in all)\n")
        assert len(err) == len("error: ") + cli.ERROR_CHARS + len("... (5052 characters in all)\n")

    def test_usage_error_nonpositive_max_order(self, capsys):
        for cap in ["0", "-3"]:
            code, out, err = run(capsys, "verify", "--max-order", cap)
            assert code == 2, cap
            assert out == ""
            assert "--max-order" in err

    def test_usage_error_nonpositive_grid_bounds(self, capsys):
        # a grid with no groups would pass a campaign that checked nothing
        for option in ["--max-m", "--max-n"]:
            for bound in ["0", "-2"]:
                code, out, err = run(capsys, "verify", option, bound)
                assert code == 2, (option, bound)
                assert out == ""
                assert err.count("\n") == 1 and option in err

    def test_usage_error_nonpositive_jobs(self, capsys):
        for jobs in ["0", "-3"]:
            code, out, err = run(capsys, "verify", "--group", "G(2,1,2)",
                                 "--jobs", jobs)
            assert code == 2, jobs
            assert out == ""
            assert err.count("\n") == 1 and "--jobs" in err

    def test_usage_error_nonprime_ell(self, capsys):
        code, out, err = run(capsys, "classify", "--group", "G28", "--ell", "6")
        assert (code, out) == (2, "")
        assert err == "error: argument --ell: ell must be prime, got 6\n"

    def test_domain_error_not_divisor(self, capsys):
        # |Sym(611)^3| has over 4300 decimal digits, too many for str()
        for argv in [("classify", "--group", "G(12,6,3)", "--ell", "7"),
                     ("verify", "--group", "G(2,1,2)", "--ell", "3"),
                     ("classify", "--group", "A610^3", "--ell", "1103"),
                     ("sylow", "--group", "A610^3", "--ell", "1103")]:
            code, out, err = run(capsys, *argv)
            assert code == 3, argv
            assert out == ""
            assert "does not divide" in err

    def test_domain_error_json_order_too_long(self, capsys):
        # Sylow orders 2^19995 and 5^9748 have over 4300 decimal digits,
        # more than Python converts to str; text output prints them factored
        for group, ell in [("A20000", "2"), ("G(3000,1,3000)", "all")]:
            argv = ("sylow", "--group", group, "--ell", ell)
            code, out, err = run(capsys, *argv, "--format", "json")
            assert code == 3, argv
            assert out == ""
            assert err.count("\n") == 1 and "--format text" in err
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out

    def test_ell_all_is_bounded(self, capsys):
        # G(100000,1,100000) has 9592 primes, each report carrying the
        # factored order: every command refuses at once, with one stderr line
        for command in ("classify", "sylow", "verify"):
            code, out, err = run(capsys, command, "--group", "G(100000,1,100000)",
                                 "--ell", "all")
            assert (code, out) == (3, ""), command
            assert err.count("\n") == 1
            assert f"9592 primes, more than {cli.MAX_ELLS}" in err
        code, out, _ = run(capsys, "sylow", "--group", "G(100000,1,100000)", "--ell", "2")
        assert code == 0 and out
        # the bound lies above the largest expansions in use, and A7918 =
        # Sym(7919) reaches it: 7919 is the 1000th prime
        for spec, count in [("G(3000,1,3000)", 430), ("G(1155,5,1800) x G28", 278),
                            ("A7918", cli.MAX_ELLS), ("A7926", cli.MAX_ELLS + 1)]:
            assert len(groups.group_primes(parse_group(spec))) == count, spec

    def test_huge_ell_is_bounded(self):
        # a 21-digit prime (domain error) and a 21-digit composite (usage
        # error), each in a fresh process that must finish in time
        for ell, want in [("100000000000000000039", 3),
                          ("100000000000000000041", 2)]:
            proc = _run_module("classify", "--group", "G4", "--ell", ell)
            assert proc.returncode == want, (ell, proc.stderr)
            assert proc.stdout == ""

    def test_huge_group_is_bounded(self):
        # |G(20000,1,20000)| has over 160000 decimal digits; its order is
        # factored from the parameters, never by trial division
        proc = _run_module("classify", "--group", "G(20000,1,20000)", "--ell", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("G(20000,1,20000) (order 2^119995*3^9996*")

    def test_parameter_past_trial_division(self, capsys):
        # m = 10^18 + 3 is prime; trial division alone would run to 10^9
        spec = "G(1000000000000000003,1,1)"
        for command in ("classify", "sylow"):
            code, out, err = run(capsys, command, "--group", spec, "--ell", "2")
            assert (code, out) == (3, ""), command
            assert "does not divide" in err
        code, out, _ = run(capsys, "classify", "--group", spec, "--ell", "all")
        assert code == 0 and "ell = 1000000000000000003" in out

    def test_4000_digit_parameter(self, capsys):
        smooth = 10**3999
        code, out, _ = run(capsys, "classify", "--group", f"G({smooth},1,1)", "--ell", "5")
        assert code == 0 and "order 2^3999*5^3999" in out
        code, out, err = run(capsys, "classify", "--group", f"G({smooth + 1},1,1)",
                             "--ell", "2")
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot factor a 13251-bit cofactor")

    def test_power_past_the_factor_cap(self, capsys):
        # rejected while the spec is read, before any factor is built: a
        # 5000-digit exponent, past int()'s digit limit, and 10^8 factors
        for spec in ["A1^" + "3" * 5000, "A1^100000000",
                     f"A1^{groups.MAX_FACTORS + 1}", "A1^6000 x A1^6000"]:
            code, out, err = run(capsys, "classify", "--group", spec, "--ell", "2")
            assert (code, out) == (2, ""), spec[:20]
            assert err.count("\n") == 1 and f"at most {groups.MAX_FACTORS}" in err
        code, out, _ = run(capsys, "classify", "--group", f"A1^{groups.MAX_FACTORS}",
                           "--ell", "2")
        assert code == 0 and out.startswith("G(1,1,2)^10000 (order 2^10000)")

    def test_product_with_too_many_classes(self, capsys):
        # 3 minimal reflection classes per factor at ell = 2: 3^11 in all,
        # and the message gives the bound, not the count
        code, out, err = run(capsys, "classify", "--group", "G(6,6,3)^11", "--ell", "2",
                             "--kind", "reflection")
        assert (code, out) == (3, "")
        assert "more than 10000 minimal reflection classes" in err
        assert "177147" not in err
        code, out, err = run(capsys, "classify", "--group", "G(6,6,3)^20", "--ell", "2",
                             "--kind", "reflection", "--format", "json")
        assert (code, out) == (3, "") and "more than 10000" in err
        # the parabolic report needs only whether the class is unique
        code, out, _ = run(capsys, "classify", "--group", "G(6,6,3)^20", "--ell", "2",
                           "--format", "json")
        report = json.loads(out)
        assert code == 0 and len(report["classes"]) == 1
        assert (report["cuspidal"], report["supercuspidal"]) == (True, False)

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        failing = verify.CampaignReport([verify.GroupReport(2, 1, 2, 8, checks=[
            verify.Check("parabolic", 2, False, "forced")])])
        monkeypatch.setattr(verify, "run_campaign",
                            lambda *a, **k: failing)
        code, out, _ = run(capsys, "verify", "--group", "G(2,1,2)")
        assert code == 4
        assert "FAIL" in out

    def test_verify_success(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "G(3,3,2)", "--ell", "all")
        assert code == 0
        assert "0 failed" in out

    def test_verify_trivial_group_prints_only_the_summary(self, capsys):
        # G(4,4,1) is G(1,1,1): no prime divides its order, so no check runs
        for spec in ["G(1,1,1)", "G(4,4,1)"]:
            code, out, _ = run(capsys, "verify", "--group", spec)
            assert code == 0, spec
            assert out == "1 groups (0 skipped), 0 checks, 0 failed\n", spec

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "G(3,3,2)",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["groups"][0]["group"] == "G(3,3,2)"
        assert json.loads(json.dumps(payload)) == payload

    def test_verify_skips_a_group_whose_order_has_too_many_digits(self, capsys):
        # |G(2000,1,2000)| has over 4300 decimal digits, more than Python
        # converts to str; the skip reason names the cap, not the order
        code, out, err = run(capsys, "verify", "--group", "G(2000,1,2000)")
        assert code == 0, err
        assert out == (
            f"SKIP G(2000,1,2000): |G(2000,1,2000)| exceeds cap {oracle.DEFAULT_ORDER_CAP}\n"
            "1 groups (1 skipped), 0 checks, 0 failed\n")

    def test_verify_skips_a_group_past_the_subgroup_cap(self, capsys, monkeypatch):
        # the lattice's cap ends the group with a SKIP line, as the order
        # cap does, not with a traceback
        monkeypatch.setattr(oracle, "MAX_SUBGROUPS", 10)
        code, out, err = run(capsys, "verify", "--group", "G(2,1,3)")
        assert (code, err) == (0, "")
        assert out == ("SKIP G(2,1,3): more than 10 reflection subgroups\n"
                       "1 groups (1 skipped), 0 checks, 0 failed\n")
        code, out, err = run(capsys, "verify", "--group", "G(2,1,3)",
                             "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["groups"] == [{
            "group": "G(2,1,3)", "order": 48, "skipped": True,
            "skip_reason": "more than 10 reflection subgroups", "checks": []}]
        assert payload["summary"] == {"groups": 1, "skipped": 1, "checks": 0,
                                      "failed": 0}
        assert payload["all_passed"] is True

    def test_verify_json_order_too_long(self, capsys):
        code, out, err = run(capsys, "verify", "--group", "G(2000,1,2000)",
                             "--format", "json")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "--format text" in err


def _module_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(sylowclass.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_module(*argv):
    """`python -m sylowclass *argv` in a fresh process, with a 60 s bound."""
    return subprocess.run([sys.executable, "-m", "sylowclass", *argv],
                          capture_output=True, text=True, env=_module_env(),
                          timeout=60)


def _run_python(code: str):
    """`python -c code` in a fresh process, with a 60 s bound."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_module_env(), timeout=60)


class TestVerifyProgress:
    """verify --progress: one stderr line per finished group, stdout unchanged."""

    def test_skipped_group_with_a_huge_order(self, capsys):
        argv = ["verify", "--group", "G(2000,1,2000)"]
        code, plain, _ = run(capsys, *argv)
        code, out, err = run(capsys, *argv, "--progress")
        assert (code, out) == (0, plain)
        order = groups.order_factored(groups.Imprimitive(2000, 1, 2000))
        assert err.startswith(f"G(2000,1,2000) order {order}: ")
        assert err.endswith(" s, 0 checks (skipped)\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_lines_in_grid_order_and_stdout_unchanged(self, capsys, jobs):
        for fmt in ("text", "json"):
            argv = ["verify", "--max-order", "60", "--jobs", jobs, "--format", fmt]
            code, plain, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            code, out, err = run(capsys, *argv, "--progress")
            assert code == 0
            assert out == plain, fmt
            points = verify.grid_points(order_cap=60)
            lines = err.splitlines()
            assert len(lines) == len(points)
            for (m, p, n), line in zip(points, lines):
                label, order, rest = line.split(" ", 2)
                assert (label, order) == (f"G({m},{p},{n})", "order")
                assert rest.startswith(
                    f"{groups.order_factored(groups.Imprimitive(m, p, n))}: ")
                assert rest.endswith(" checks")
                seconds, checks = rest.split(": ")[1].split(" s, ")
                assert float(seconds) >= 0
                assert int(checks.split()[0]) == len(groups.group_primes(
                    groups.Imprimitive(m, p, n))) * 3


class TestClosedPipe:
    # The read end is closed before the command starts, so its first write
    # fails whatever the timing: a large output (the reflection table as
    # JSON) fails inside print, a small one at the flush in cli.main.
    @pytest.mark.parametrize("argv", [
        ("tables", "--id", "reflection", "--format", "json"),
        ("classify", "--group", "G4", "--ell", "2"),
    ])
    def test_exits_141_without_a_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "sylowclass", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=_module_env(), timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 141, proc.stderr
        assert proc.stderr == b""


# Every closed-form command: both kinds and all formats of classify, sylow
# in all formats, every table in both formats, and the observation check.
_CLOSED_FORM_ARGV = (
    [["classify", "--group", spec, "--ell", "all", "--kind", kind, "--format", fmt]
     for spec in ["G(12,6,3)", "G28", "G4 x G(6,1,5)"]
     for kind in ["parabolic", "reflection"]
     for fmt in ["text", "json", "markdown"]]
    + [["sylow", "--group", spec, "--ell", "all", "--format", fmt]
       for spec in ["G(12,6,3)", "G28", "G4 x G(6,1,5)"]
       for fmt in ["text", "json", "markdown"]]
    + [["tables", "--id", table_id, "--format", fmt]
       for table_id in sorted(cli.TABLE_NAMES)
       for fmt in ["markdown", "json"]]
    + [["verify", "--observation"]]
)

_RUN_EACH = """
import contextlib, io, json, sys
{prelude}
from sylowclass import cli
results = []
for argv in json.loads({argv!r}):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps({{"results": results, "loaded": sorted(
    name for name in ("numpy", "sylowclass.oracle", "sylowclass.structure",
                      "sylowclass.tables", "sylowclass.verify")
    if sys.modules.get(name) is not None)}}))
"""


def _run_each(capsys, argvs, prelude=""):
    """Run argvs through cli.main in one fresh process; check each (exit
    code, stdout) against an in-process run and return the modules of
    _RUN_EACH's list that the process loaded."""
    proc = _run_python(_RUN_EACH.format(prelude=prelude, argv=json.dumps(argvs)))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    for argv, (code, out) in zip(argvs, payload["results"], strict=True):
        assert (code, out) == run(capsys, *argv)[:2], argv
        assert code == 0, argv
    return payload["loaded"]


class TestNumpyFreeCommands:
    def test_closed_form_commands_run_without_numpy(self, capsys):
        # numpy is made unimportable before sylowclass.cli is imported
        loaded = _run_each(capsys, _CLOSED_FORM_ARGV,
                           prelude='sys.modules["numpy"] = None')
        assert loaded == ["sylowclass.structure", "sylowclass.tables"]

    def test_verify_imports_the_oracle_on_demand(self):
        script = _RUN_EACH.format(
            prelude="", argv=json.dumps([["verify", "--group", "G(2,1,2)"]]))
        proc = _run_python(script)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        # the campaign reads no table: G(m,p,n) answers are closed forms
        assert payload["loaded"] == ["numpy", "sylowclass.oracle",
                                     "sylowclass.structure", "sylowclass.verify"]
        [[code, out]] = payload["results"]
        assert code == 0
        assert out.endswith("1 groups (0 skipped), 3 checks, 0 failed\n")


_STARTUP_MODULES = ("dataclasses", "inspect", "importlib.resources", "numpy", "json")

_RUN_BARE = """
import contextlib, io, sys
from sylowclass import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(code, *[name for name in {names!r} if name in sys.modules])
"""


class TestStartupImports:
    """A closed-form command, run without the site hooks (python -S) that
    may import modules into every process, loads neither dataclasses,
    inspect, importlib.resources nor numpy, and a text command not json."""

    @pytest.mark.parametrize("argv,loaded", [
        (["classify", "--group", "G(12,6,3)", "--ell", "all", "--format", "json"],
         ["json"]),
        (["sylow", "--group", "G32", "--ell", "2"], []),
        (["tables", "--id", "reflection", "--format", "markdown"], []),
        (["classify", "--group", "G(12,6,3) x G28", "--ell", "2"], []),
    ], ids=["classify-json", "sylow", "tables", "classify-text"])
    def test_closed_form_commands_skip_heavy_modules(self, argv, loaded):
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             _RUN_BARE.format(argv=argv, names=_STARTUP_MODULES)],
            capture_output=True, text=True, env=_module_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", *loaded]


_IMPRIMITIVE_SPECS = ("G(12,6,3)", "G(6,1,5) x G(3,3,2)")


class TestLazyImports:
    """Each subcommand imports only the modules it runs: the embedded
    tables for an exceptional group or a `tables` command, the Sylow terms
    for `sylow`."""

    def test_classify_imprimitive_loads_neither_tables_nor_structure(self, capsys):
        argvs = [["classify", "--group", spec, "--ell", "all", "--kind", kind,
                  "--format", fmt]
                 for spec in _IMPRIMITIVE_SPECS
                 for kind in ["parabolic", "reflection"]
                 for fmt in ["text", "json"]]
        argvs.append(["classify", "--group", "G(12,6,3)", "--ell", "3"])
        assert _run_each(capsys, argvs) == []

    def test_sylow_imprimitive_loads_structure_only(self, capsys):
        argvs = [["sylow", "--group", spec, "--ell", "all", "--format", fmt]
                 for spec in _IMPRIMITIVE_SPECS for fmt in ["text", "json"]]
        assert _run_each(capsys, argvs) == ["sylowclass.structure"]

    def test_tables_command_loads_tables_only(self, capsys):
        argvs = [["tables", "--id", table_id, "--format", fmt]
                 for table_id in sorted(cli.TABLE_NAMES)
                 for fmt in ["markdown", "json"]]
        assert _run_each(capsys, argvs) == ["sylowclass.tables"]

    def test_exceptional_classify_loads_tables(self, capsys):
        argvs = [["classify", "--group", "G28", "--ell", "all", "--kind", kind]
                 for kind in ["parabolic", "reflection"]]
        assert _run_each(capsys, argvs) == ["sylowclass.tables"]

    def test_package_exports_resolve_before_structure_is_imported(self):
        proc = _run_python(
            "import json, sys\n"
            "import sylowclass\n"
            "before = 'sylowclass.structure' in sys.modules\n"
            "tables = sylowclass.tables.__name__  # an attribute, as before\n"
            "from sylowclass import *\n"
            "from sylowclass import structure\n"
            "print(json.dumps({'before': before, 'tables': tables,\n"
            "    'missing': [n for n in sylowclass.__all__ if n not in globals()],\n"
            "    'same': [getattr(sylowclass, n) is getattr(structure, n) for n in (\n"
            "        'render_term', 'structure_order', 'sylow_structure',\n"
            "        'sylow_symmetric')],\n"
            "    'dir': sorted(set(sylowclass.__all__) - set(dir(sylowclass)))}))\n")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "before": False, "tables": "sylowclass.tables", "missing": [],
            "same": [True] * 4, "dir": []}
        assert sylowclass.sylow_structure is structure.sylow_structure
        with pytest.raises(AttributeError):
            sylowclass.no_such_name  # noqa: B018

    @pytest.mark.parametrize("module", [groups, structure],
                             ids=lambda module: module.__name__)
    def test_module_exports_resolve(self, module):
        # a star import raises AttributeError on a stale __all__ entry
        namespace: dict = {}
        exec(f"from {module.__name__} import *", namespace)
        assert [n for n in module.__all__ if n not in namespace] == []

    def test_readme_quick_start_runs_as_written(self):
        readme = Path(sylowclass.__file__).resolve().parents[2] / "README.md"
        if not readme.exists():
            pytest.skip("no README.md next to the package (installed copy)")
        text = readme.read_text("utf-8")
        start = text.index("## Library quick start")
        block = text[text.index("```python\n", start) + len("```python\n"):]
        block = block[:block.index("```")]
        proc = _run_python(
            "import doctest, sys\n"
            f"test = doctest.DocTestParser().get_doctest({block!r}, {{}}, 'README', None, 0)\n"
            "runner = doctest.DocTestRunner()\n"
            "runner.run(test)\n"
            "sys.exit(1 if runner.failures or not runner.tries else 0)\n")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_table_lookup_error_maps_to_exit_3(self, capsys, monkeypatch):
        from sylowclass import tables

        assert tables.TableLookupError is groups.TableLookupError
        assert cli.TableLookupError is tables.TableLookupError

        def missing(table_id, group, ell=None):
            raise tables.TableLookupError(f"no {table_id} row for {group}")

        monkeypatch.setattr(tables, "lookup", missing)
        cls.classify_parabolic.cache_clear()  # a memoized answer skips the lookup
        try:
            code, out, err = run(capsys, "classify", "--group", "G28", "--ell", "3")
        finally:
            cls.classify_parabolic.cache_clear()
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "no t1 row" in err


class TestOrdersFactoredFromParameters:
    def test_no_big_integer_is_trial_divided(self, capsys, monkeypatch):
        # every integer valuation.factorization sees is a parameter, a
        # ledger order or a printed table order; |G37| = 696729600 is the
        # largest of those
        seen = []
        original = valuation.factorization

        def recording(n):
            seen.append(n)
            return original(n)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "sylowclass"
                    and getattr(module, "factorization", None) is original):
                monkeypatch.setattr(module, "factorization", recording)
        # memoized answers from earlier tests would skip the factoring
        for cached in (groups.order_factorization, cls.classify_parabolic,
                       cls.classify_reflection, structure.sylow_structure):
            cached.cache_clear()
        spec = "G(1155,5,1800) x G28"
        g = parse_group(spec)
        for kind in ("parabolic", "reflection"):
            for ell in (2, 3, 5, 7, 11):
                report = cli.classification_report(g, ell, kind)
                assert report["classes"]
        code, out, _ = run(capsys, "sylow", "--group", spec, "--ell", "all")
        assert code == 0 and out.count("\n") == len(groups.group_primes(g))
        assert seen and max(seen) < 10**9


# sha256 of every render_table output, recorded before the table rows were
# built by _family_row and _concrete_row; any change to a table's bytes
# fails here.
_TABLE_DIGESTS = {
    ("parabolic", "json"): "1316752901dc67ed8802734c7ed1dcf96b6d7fe27835420755254feb2d2372bc",
    ("parabolic", "markdown"): "6d4f1e3b957f7f34868337c90776637f54aa54644217a03b92c09e571ade8171",
    ("cuspidal", "json"): "ca54859f0ffdbf7eaf497e28643a128c72632f9a509bd4e444a631575e8149a8",
    ("cuspidal", "markdown"): "c4e800d3014d5a5fc94f33b4649b3c554f167fb6aa8c8514be8e651bdc885b4c",
    ("reflection", "json"): "72ee3f3b38c3f9024a24405db3f8723c6ebce9207de8a04d246befef158bcbd1",
    ("reflection", "markdown"): "bae08c75e4a977999a776ffb6871080b495ad867af8eec07113490aab57f8861",
    ("supercuspidal", "json"): "1954950150fd97754a7663c6d43cf08ab7323739abac8f7b6e8a6a91a92018c0",
    ("supercuspidal", "markdown"): "7f73f81d1a17934b966a057ce5bab2448ea57985d223c60e7e1437c6d89d6704",
    ("nonunique", "json"): "f73d31b62a2f0573735bc90a45ca1d93d42746ab12e35f5bb699fce8f4366717",
    ("nonunique", "markdown"): "8af47edd57c335f95e73181ad00a9684e986993f0e40499b0f227cbf71ee86b6",
}


class TestTablesCommand:
    @pytest.mark.parametrize("table_id, fmt", sorted(_TABLE_DIGESTS))
    def test_render_bytes_are_pinned(self, table_id, fmt):
        text = cli.render_table(table_id, fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == _TABLE_DIGESTS[table_id, fmt]

    def test_every_table_and_format_is_pinned(self):
        assert set(_TABLE_DIGESTS) == {(t, f) for t in cli.TABLE_NAMES
                                       for f in ("json", "markdown")}

    @pytest.mark.parametrize("table_id", sorted(cli.TABLE_NAMES))
    def test_renders_and_is_stable(self, table_id, capsys):
        code, first, _ = run(capsys, "tables", "--id", table_id)
        assert code == 0
        code, second, _ = run(capsys, "tables", "--id", table_id)
        assert first == second

    def test_supercuspidal_has_13_rows(self, capsys):
        code, out, _ = run(capsys, "tables", "--id", "supercuspidal",
                           "--format", "json")
        rows = json.loads(out)["rows"]
        assert len(rows) == 13

    def test_nonunique_includes_g26(self, capsys):
        code, out, _ = run(capsys, "tables", "--id", "nonunique")
        assert "L3" in out and "B3(3)" in out

    def test_cuspidal_json_carries_anomalies(self, capsys):
        code, out, _ = run(capsys, "tables", "--id", "cuspidal",
                           "--format", "json")
        payload = json.loads(out)
        ids = {a["id"] for a in payload["anomalies"]}
        assert ids == {"t1-g1-cuspidal-condition", "t2-g30-g32-block",
                       "t3-g26-order-typo"}

    def test_every_data_row_reproduced(self, capsys):
        tabs = load_tables()
        key_of = {"t1": "parabolic", "t2": "cuspidal", "t3": "reflection",
                  "t3b": "reflection", "t4": "supercuspidal", "t5": "nonunique"}
        generated = {k: cli.generate_table(k) for k in cli.TABLE_NAMES}
        for table_id, key in key_of.items():
            for row in tabs.concrete(table_id):
                found = [
                    g for g in generated[key]
                    if g["group"].split("=")[0] == f"G{row.group.st}"
                    and str(g["ell"]) in (",".join(map(str, row.ell_list)),
                                          str(row.ell))
                ]
                assert found, (table_id, row.group_label, row.ell)


def _observation_counts(out: str) -> tuple[int, int]:
    # "observation check: <groups> groups, <pairs> (group, ell) pairs, ..."
    words = out.split()
    return int(words[2]), int(words[4])


def _catalog_counts(max_m: int, max_n: int) -> tuple[int, int]:
    catalog = list(cls.catalog_irreducibles(max_m, max_n))
    return len(catalog), sum(len(groups.group_primes(g)) for g in catalog)


class TestObservationFlag:
    def test_observation(self, capsys):
        code, out, _ = run(capsys, "verify", "--observation")
        assert code == 0
        assert "0 violations" in out
        assert _observation_counts(out) == _catalog_counts(
            verify.DEFAULT_MAX_M, verify.DEFAULT_MAX_N)

    def test_max_m_and_max_n_bound_the_catalog(self, capsys):
        code, small, _ = run(capsys, "verify", "--observation",
                             "--max-m", "2", "--max-n", "2")
        assert code == 0 and "0 violations" in small
        assert _observation_counts(small) == _catalog_counts(2, 2)
        code, default, _ = run(capsys, "verify", "--observation")
        assert _observation_counts(small)[0] < _observation_counts(default)[0]

    @pytest.mark.parametrize("flag", ["--max-m", "--max-n"])
    def test_nonpositive_bound_is_a_usage_error(self, capsys, flag):
        code, out, err = run(capsys, "verify", "--observation", flag, "0")
        assert code == 2 and out == ""
        assert flag in err

    @pytest.mark.parametrize("options, named", [
        (["--format", "json"], "--format json"),
        (["--group", "G(2,1,2)"], "--group"),
        (["--ell", "2"], "--ell"),
        (["--ell", "all"], "--ell"),
        (["--max-order", "100"], "--max-order"),
        (["--max-order", "0"], "--max-order"),
        (["--jobs", "1"], "--jobs"),
        (["--jobs", "0"], "--jobs"),
        (["--progress"], "--progress"),
    ])
    def test_unused_option_is_a_usage_error(self, capsys, options, named):
        # the check reads only --max-m and --max-n; any other option would
        # be dropped without a word, and JSON readers would get text
        code, out, err = run(capsys, "verify", "--observation", *options)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and named in err

    def test_every_unused_option_is_named(self, capsys):
        code, out, err = run(capsys, "verify", "--observation", "--progress",
                             "--format", "json", "--max-m", "3", "--jobs", "2")
        assert (code, out) == (2, "")
        assert "--progress" in err and "--format json" in err and "--jobs" in err
        assert "--max-m" not in err

    def test_text_format_is_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "--observation", "--format", "text",
                           "--max-m", "2", "--max-n", "2")
        assert code == 0 and "0 violations" in out


# Group specs from the grammar of groups.parse_group, valid or not.
_ATOMS = st.one_of(
    st.builds("G({},{},{})".format, *[st.integers(0, 12)] * 3),
    st.builds("G{}".format, st.integers(0, 40)),
    st.sampled_from(["H3", "H4", "E6", "E7", "E8", "F4", "L2", "L3", "L4",
                     "M3", "J3(4)", "K5", "N4", "O4", "B3(3)", "D4(3)"]),
    st.builds("{}{}".format, st.sampled_from("ABDCL"), st.integers(0, 12)),
    st.builds("{}{}({})".format, st.sampled_from("BD"), st.integers(0, 8),
              st.integers(0, 8)),
    st.text(alphabet="GABCDLx^()[],0123456789 ", max_size=4),
)
_SPECS = st.lists(
    st.tuples(_ATOMS, st.sampled_from(["", "^0", "^1", "^2", "^3"])).map("".join),
    min_size=1, max_size=3).map(" x ".join)
_ELLS = st.one_of(
    st.sampled_from(["2", "3", "5", "7", "11", "13", "4", "6", "9", "25",
                     "0", "1", "all"]),
    st.integers(0, 10**30).map(str),
)


# Boundaries: exponents around groups.MAX_FACTORS and around 9012, the
# largest k with 3^k of at most 4300 digits (Python's int -> str limit);
# parameters and primes of 4000, 4300, 4301 and 5000 digits, on each side
# of that limit, ending in 0, 1, 5 or 9 (smooth, or with a large cofactor).
_EDGE_POWERS = st.sampled_from([groups.MAX_FACTORS - 1, groups.MAX_FACTORS,
                                groups.MAX_FACTORS + 1, 9011, 9012, 9013])
_HUGE = st.builds(lambda digits, last: "1" + "0" * (digits - 2) + last,
                  st.sampled_from([4000, 4300, 4301, 5000]), st.sampled_from("0159"))
_EDGE_SPECS = st.one_of(
    st.builds("{}^{}".format, st.sampled_from(["A1", "G(3,1,1)", "G(6,6,3)", "G4"]),
              _EDGE_POWERS),
    st.builds("G({0},1,1)".format, _HUGE),
    st.builds("G({0},{0},2)".format, _HUGE),
    st.builds("G({0},1,2)".format, _HUGE),
    st.builds("G(2,1,{})".format, _HUGE),
)


def _check_contract(argv) -> tuple[int, str]:
    """Run argv through cli.main and check the exit-code contract: code 0,
    2 or 3, or 4 for a failed check; nothing on stdout after an error, and
    on stderr one error line and no traceback; --progress prints a line
    per group before it.  Returns the code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue(), argv
    # an error line is bounded, whatever the length of the rejected input
    assert all(len(line) <= 300 for line in lines if "error:" in line), argv
    assert code in (0, 2, 3, 4), argv
    if code == 4:
        assert "FAIL" in out.getvalue() or "VIOLATION" in out.getvalue(), argv
    elif code:
        assert out.getvalue() == "", argv
        assert [line for line in lines if "error:" in line] == lines[-1:], argv
        if "--progress" not in argv:
            assert len(lines) == 1, argv
    elif "--progress" not in argv:
        assert lines == [], argv
    return code, out.getvalue()


class TestExitCodeContract:
    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(["classify", "sylow"]), spec=_SPECS,
           ell=_ELLS, kind=st.sampled_from(["parabolic", "reflection"]),
           fmt=st.sampled_from(["text", "json", "markdown"]))
    def test_codes_and_quiet_stdout(self, command, spec, ell, kind, fmt):
        argv = [command, "--group", spec, "--ell", ell, "--format", fmt]
        if command == "classify":
            argv += ["--kind", kind]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3), argv
        if code:
            assert out.getvalue() == "", argv

    @pytest.mark.parametrize("argv, code, named", [
        # 3^9012 has 4300 digits, the most int -> str allows; 3^10000 has more
        (["classify", "--group", "G(6,6,3)^9012", "--ell", "2", "--kind", "reflection"],
         3, "more than 10000 minimal reflection classes"),
        (["classify", "--group", "G(6,6,3)^9012", "--ell", "all", "--kind", "reflection"],
         3, "more than 10000 minimal reflection classes"),
        (["classify", "--group", "G(6,6,3)^9013", "--ell", "2", "--kind", "reflection"],
         3, "more than 10000 minimal reflection classes"),
        (["classify", "--group", "G(6,6,3)^10000", "--ell", "2", "--kind", "reflection"],
         3, "more than 10000 minimal reflection classes"),
        (["classify", "--group", "G(6,6,3)^10000", "--ell", "all", "--kind", "reflection",
          "--format", "json"], 3, "more than 10000 minimal reflection classes"),
        (["verify", "--group", "G(2,1,2)", "--max-m", "0", "--max-n", "-5"],
         2, "--max-m, --max-n"),
        (["verify", "--group", "G(2,1,2)", "--max-n", "3"], 2, "--max-n"),
    ])
    def test_boundary_cases(self, capsys, argv, code, named):
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, ""), argv
        assert err.count("\n") == 1 and named in err and "Traceback" not in err

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(["classify", "sylow"]), spec=_EDGE_SPECS,
           ell=st.one_of(st.sampled_from(["2", "3", "5", "all"]), _HUGE),
           kind=st.sampled_from(["parabolic", "reflection"]),
           fmt=st.sampled_from(["text", "json", "markdown"]))
    def test_codes_at_the_limits(self, command, spec, ell, kind, fmt):
        argv = [command, "--group", spec, "--ell", ell, "--format", fmt]
        _check_contract(argv + ["--kind", kind] if command == "classify" else argv)

    @settings(max_examples=40, deadline=None)
    @given(flags=st.fixed_dictionaries({}, optional={
        "--group": st.sampled_from(["G(2,1,2)", "G(3,3,2)", "G(3,1,1)", "G28",
                                    "Gnope", "G(2000,1,2000)"]),
        "--ell": st.sampled_from(["2", "3", "5", "all", "4"]),
        "--format": st.sampled_from(["text", "json"]),
        "--max-order": st.sampled_from(["0", "10", "100"]),
        "--max-m": st.sampled_from(["-1", "0", "1", "2", "3"]),
        "--max-n": st.sampled_from(["0", "1", "2", "3"]),
        "--jobs": st.sampled_from(["0", "1"]),
        "--progress": st.just(None),
        "--observation": st.just(None),
    }))
    def test_verify_flag_combinations(self, flags):
        argv = ["verify"]
        for option, value in flags.items():
            argv += [option] if value is None else [option, value]
        if "--max-m" not in flags and "--group" not in flags and "--observation" not in flags:
            argv += ["--max-m", "2"]  # the grid stays tiny
        if "--jobs" not in flags and "--observation" not in flags:
            argv += ["--jobs", "1"]
        _check_contract(argv)

    @pytest.mark.parametrize("argv, code", [
        (["classify", "--group", f"A1^{groups.MAX_FACTORS}", "--ell", "2"], 0),
        (["classify", "--group", f"A1^{groups.MAX_FACTORS + 1}", "--ell", "2"], 2),
        (["sylow", "--group", "A1^5000 x A1^5000", "--ell", "2", "--format", "json"], 0),
        (["sylow", "--group", "A1^5000 x A1^5001", "--ell", "2", "--format", "json"], 2),
        # a Sylow order of 3^9012, 4300 digits, and of 3^9013, one more
        (["sylow", "--group", "G(3,1,1)^9012", "--ell", "3", "--format", "json"], 0),
        (["sylow", "--group", "G(3,1,1)^9013", "--ell", "3", "--format", "json"], 3),
        (["sylow", "--group", "G(3,1,1)^9013", "--ell", "3", "--format", "markdown"], 0),
        # 4300 digits parse, 4301 do not; 5^4299 prints, 5^8598 does not
        (["sylow", "--group", f"G(1{'0' * 4299},1,1)", "--ell", "5", "--format", "json"], 0),
        (["sylow", "--group", f"G(1{'0' * 4299},1,2)", "--ell", "5", "--format", "json"], 3),
        (["classify", "--group", f"G(1{'0' * 4300},1,1)", "--ell", "5"], 2),
        # n! is factored up to valuation.MAX_FACTORIAL_N
        (["classify", "--group", f"G(2,1,{valuation.MAX_FACTORIAL_N + 1})", "--ell", "2"], 3),
        (["sylow", "--group", f"G(2,1,1{'0' * 4000})", "--ell", "all"], 3),
        (["verify", "--group", f"G(2,1,1{'0' * 4000})", "--ell", "2"], 3),
        (["classify", "--group", "G4", "--ell", "1" + "0" * 4999], 2),
        # the JSON digit limit, in every command that prints JSON
        (["sylow", "--group", "A20000", "--ell", "2", "--format", "json"], 3),
        (["verify", "--group", "G(2000,1,2000)", "--format", "json"], 3),
        (["verify", "--group", "G(2000,1,2000)", "--format", "json", "--progress"], 3),
        # 5000-digit inputs echoed in the message: one error line of bounded length
        (["classify", "--group", "G4", "--ell", "7" * 5000], 2),
        (["verify", "--max-order", "7" * 5000], 2),
        (["tables", "--id", "7" * 5000], 2),
        (["classify", "--group", f"G({'7' * 5000},1,1)", "--ell", "2"], 2),
        # --ell all names at most cli.MAX_ELLS = 1000 primes: Sym(7919) has
        # 1000, Sym(7927) 1001, and G(100000,1,100000) 9592
        (["sylow", "--group", "A7918", "--ell", "all"], 0),
        (["sylow", "--group", "A7926", "--ell", "all"], 3),
        (["classify", "--group", "G(100000,1,100000)", "--ell", "all"], 3),
        (["classify", "--group", "G(100000,1,100000)", "--ell", "all", "--kind",
          "reflection", "--format", "json"], 3),
        (["verify", "--group", "G(100000,1,100000)", "--ell", "all"], 3),
    ])
    def test_limit_cases(self, argv, code):
        assert _check_contract(argv)[0] == code, argv

    @pytest.mark.parametrize("table_id", sorted(cli.TABLE_NAMES))
    @pytest.mark.parametrize("fmt", ["markdown", "json"])
    def test_every_table(self, table_id, fmt):
        code, out = _check_contract(["tables", "--id", table_id, "--format", fmt])
        assert code == 0 and out

    def test_parabolic_answer_of_a_huge_product(self, capsys):
        # one parabolic class per prime; its reflection classes are too many
        # to list, which makes it not supercuspidal rather than an error
        code, out, err = run(capsys, "classify", "--group", "G(6,6,3)^10000",
                             "--ell", "all", "--format", "json")
        reports = json.loads(out)
        assert (code, err) == (0, "") and [r["ell"] for r in reports] == [2, 3]
        assert all(len(r["classes"]) == 1 and r["cuspidal"] and not r["supercuspidal"]
                   for r in reports)
