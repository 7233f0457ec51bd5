import hashlib

import pytest

from sylowclass import classify
from sylowclass.groups import Exceptional, Imprimitive, order, parse_group
from sylowclass.tables import (
    KNOWN_ANOMALY_IDS,
    TABLES_SHA256,
    TableLookupError,
    _data_text,
    check_consistency,
    load_tables,
    lookup,
)
from sylowclass.valuation import nu, prime_factors


class TestLoading:
    def test_checksum_pins_edition(self):
        digest = hashlib.sha256(_data_text().encode("utf-8")).hexdigest()
        assert digest == TABLES_SHA256

    def test_row_counts(self):
        tabs = load_tables()
        assert len(tabs.table("t4")) == 13
        assert len(tabs.orders) == 34  # G4..G37
        # One parabolic and one cuspidal row set per exceptional group.
        for st in range(4, 38):
            assert tabs.rows_for("t1", st)
            assert tabs.row("t2", st)

    def test_exceptional_orders_match_hardcoded(self):
        from sylowclass.groups import EXCEPTIONAL_ORDERS

        assert load_tables().orders == EXCEPTIONAL_ORDERS


class TestLookup:
    def test_parabolic_row(self):
        row = lookup("t1", Exceptional(23), 5)
        assert row.members[0].label == "D2(5)"
        assert row.members[0].order == 10

    def test_nonunique_row(self):
        row = lookup("t5", Exceptional(28), 2)
        assert row.members[0].label == "B4"
        assert row.count == 2

    def test_supercuspidal_family_patterns(self):
        assert lookup("t4", Imprimitive(4, 1, 2), 2).group_label == "G(l^i,1,l^j)"
        assert lookup("t4", Imprimitive(8, 4, 3), 2).group_label == "G(l^i,l^j,n)"
        assert lookup("t4", Imprimitive(1, 1, 9), 3).group_label == "G(1,1,l^i)"
        assert lookup("t4", Imprimitive(25, 1, 1), 5).group_label == "G(l^i,1,1)"

    def test_supercuspidal_rejects_non_matching(self):
        with pytest.raises(TableLookupError):
            lookup("t4", Imprimitive(6, 1, 2), 2)
        with pytest.raises(TableLookupError):
            lookup("t4", Exceptional(28), 2)

    def test_family_rows_match_by_condition(self):
        row = lookup("t3", Imprimitive(12, 6, 3), 2)
        assert row.ell_condition == "l_div_p"
        row = lookup("t3", Imprimitive(6, 1, 6), 3)
        assert row.ell_condition == "l_div_m_not_p"
        row = lookup("t1", Imprimitive(6, 1, 5), 5)
        assert row.ell_condition == "l_not_div_m"
        row = lookup("t2", Imprimitive(6, 3, 4), 2)
        assert row.group_label == "G(m,p,n)"
        row = lookup("t5", Imprimitive(12, 6, 3), 2)
        assert row.count_text == "gcd(p/l^v(p),n)"

    def test_missing_row(self):
        with pytest.raises(TableLookupError):
            lookup("t1", Exceptional(23), 7)


class TestConsistency:
    def test_exactly_three_documented_anomalies(self):
        report = check_consistency()
        assert sorted(report.known_ids) == sorted(KNOWN_ANOMALY_IDS)
        assert report.unexpected == []
        assert report.ok

    def test_g30_block_content(self):
        report = check_consistency()
        block = [a.detail for a in report.findings
                 if a.anomaly_id == "t2-g30-g32-block"]
        assert len(block) == 3
        assert any("G30" in d for d in block)
        assert any("G31" in d for d in block)
        assert any("G32" in d for d in block)

    def test_member_orders_divide_and_attain_valuation(self):
        tabs = load_tables()
        for table_id in ("t1", "t3", "t3b"):
            for row in tabs.concrete(table_id):
                g_order = tabs.orders[row.group.st]
                for member in row.members:
                    assert g_order % member.order == 0
                    for ell in row.ell_list:
                        assert nu(ell, member.order) == nu(ell, g_order)

    def test_one_printed_order_differs_from_its_label(self):
        # t3 G27 l=3 prints D3(3) with order 2^3*3^3 = 216, but
        # |D3(3)| = |G(3,3,3)| = 54; check_consistency misses it, since 216
        # divides |G27| and has the full 3-adic valuation.  Reported in the
        # module docstring, never patched: classify keeps the printed order.
        tabs = load_tables()
        differing = [
            (table_id, row.group.st, row.ell_list, member.label,
             member.order, order(member.group))
            for table_id in ("t1", "t3", "t3b")
            for row in tabs.concrete(table_id)
            for member in row.members
            if member.order != order(member.group)
        ]
        assert differing == [("t3", 27, (3,), "D3(3)", 216, 54)]
        report = classify.classify_reflection(Exceptional(27), 3)
        assert [(m.label, m.order) for m in report.members] == [("D3(3)", 216)]

    def test_t5_counts_match_classifier(self):
        tabs = load_tables()
        for row in tabs.concrete("t5"):
            result = classify.classify_reflection(row.group, row.ell)
            matching = [m for m in result.members if m.label == row.members[0].label]
            assert len(matching) == row.count

    def test_t2_matches_classifier_except_g32(self):
        tabs = load_tables()
        for st in sorted(tabs.orders):
            derived = tuple(
                ell for ell in prime_factors(order(Exceptional(st)))
                if classify.is_cuspidal(Exceptional(st), ell))
            printed = tabs.cuspidal_primes(st)
            if st == 32:
                assert printed == (2, 5) and derived == (2, 3, 5)
            else:
                assert printed == derived, f"G{st}"

    def test_g26_typo_read_as_multiplication(self):
        row = lookup("t3", Exceptional(26), 2)
        assert row.members[0].order_text == "2^4x3"
        assert row.members[0].order == 48


class TestMemberLabels:
    def test_all_labels_parse(self):
        tabs = load_tables()
        for table_id in ("t1", "t3", "t3b", "t5"):
            for row in tabs.concrete(table_id):
                for member in row.members:
                    parse_group(member.label)

    def test_b_decorations(self):
        # B(4)-decorated labels must have orders matching G(4,2,n),
        # not G(4,1,n); this pins the alias resolution.
        row = lookup("t3b", Exceptional(6), 2)
        assert row.members[0].label == "B2(4)"
        assert row.members[0].order == 16 == order(parse_group("B2(4)"))
        row = lookup("t3", Exceptional(31), 2)
        assert row.members[0].order == order(parse_group("B4(4)")) == 3072
        # and the paper's explicit definition B_n^(3) = G(3,1,n)
        row = lookup("t3", Exceptional(26), 3)
        b33 = [m for m in row.members if m.label == "B3(3)"][0]
        assert b33.order == order(Imprimitive(3, 1, 3)) == 162
