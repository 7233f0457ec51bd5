import json

import pytest

from sylowclass import cli, oracle, verify
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


class TestExitCodes:
    def test_usage_error_bad_group(self, capsys):
        # unparsable, and parsable with parameters no G(m,p,n) has
        for spec in ["Gnope", "G(3,2,3)", "G(0,1,1)"]:
            code, _, err = run(capsys, "classify", "--group", spec, "--ell", "2")
            assert code == 2, spec
            assert "error" in err

    def test_usage_error_nonpositive_max_order(self, capsys):
        for cap in ["0", "-3"]:
            code, out, err = run(capsys, "verify", "--max-order", cap)
            assert code == 2, cap
            assert out == ""
            assert "--max-order" in err

    def test_usage_error_nonpositive_env_cap(self, capsys, monkeypatch):
        for value in ["-5", "0", "many"]:
            monkeypatch.setenv("SYLOW_ORACLE_CAP", value)
            code, out, err = run(capsys, "verify", "--group", "G(3,3,2)")
            assert code == 2, value
            assert out == ""
            assert "SYLOW_ORACLE_CAP" in err

    def test_default_cap_is_the_oracle_default(self, monkeypatch):
        monkeypatch.delenv("SYLOW_ORACLE_CAP", raising=False)
        assert cli.default_order_cap() == oracle.DEFAULT_ORDER_CAP
        monkeypatch.setenv("SYLOW_ORACLE_CAP", "100")
        assert cli.default_order_cap() == 100

    def test_usage_error_nonprime_ell(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "classify", "--group", "G28", "--ell", "6")
        assert exc.value.code == 2

    def test_domain_error_not_divisor(self, capsys):
        for argv in [("classify", "--group", "G(12,6,3)", "--ell", "7"),
                     ("verify", "--group", "G(2,1,2)", "--ell", "3")]:
            code, out, err = run(capsys, *argv)
            assert code == 3, argv
            assert out == ""
            assert "does not divide" in err

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

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--group", "G(3,3,2)",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["groups"][0]["group"] == "G(3,3,2)"
        assert json.loads(json.dumps(payload)) == payload


class TestTablesCommand:
    @pytest.mark.parametrize("table_id", sorted(cli.TABLE_ALIASES))
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
        generated = {k: cli.generate_table(k) for k in cli.TABLE_ALIASES}
        for table_id, key in key_of.items():
            for row in tabs.concrete(table_id):
                found = [
                    g for g in generated[key]
                    if g["group"].split("=")[0] == f"G{row.group.st}"
                    and str(g["ell"]) in (",".join(map(str, row.ell_list)),
                                          str(row.ell))
                ]
                assert found, (table_id, row.group_label, row.ell)


class TestObservationFlag:
    def test_observation(self, capsys):
        code, out, _ = run(capsys, "verify", "--observation")
        assert code == 0
        assert "0 violations" in out
