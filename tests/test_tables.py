import hashlib

import pytest

from sylowclass import classify
from sylowclass.groups import Exceptional, Imprimitive, order, parse_group
from sylowclass.tables import (
    KNOWN_ANOMALY_IDS,
    TABLE_IDS,
    TABLES_SHA256,
    TableLookupError,
    Tables,
    _data_text,
    _parse_row,
    _supercuspidal_family_label,
    _table_supercuspidal,
    check_consistency,
    load_tables,
    lookup,
    reflection_table_id,
)
from sylowclass.valuation import is_prime, nu, prime_factors


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

    def test_record_has_seven_fields(self):
        row = _parse_row("t3|G8|2|G(4,1,2)|2^5||")
        assert [(m.label, m.order) for m in row.members] == [("G(4,1,2)", 32)]
        with pytest.raises(ValueError, match="bad table record"):
            _parse_row("t3|G8|2|G(4,1,2)|2^5|")
        with pytest.raises(ValueError, match="bad table record"):
            _parse_row("t3|G8|2|G(4,1,2)|2^5|||")

    def test_record_has_one_order_per_member(self):
        row = _parse_row("t3b|G12|2|L2;~L2|2^3;2^3|2|")
        assert [(m.label, m.tilde, m.order) for m in row.members] == [
            ("L2", False, 8), ("L2", True, 8)]
        for orders in ("2^3", "", "2^3;2^3;2^3"):
            with pytest.raises(ValueError, match="one order per member"):
                _parse_row(f"t3b|G12|2|L2;~L2|{orders}|2|")


def _scan_row(tabs, table_id, st, ell):
    """The first concrete row of the table for G<st> that lists ell, by a
    linear scan over every row in file order; None when there is none."""
    for r in tabs.rows:
        if (r.table == table_id and not r.is_family and r.group == Exceptional(st)
                and (ell is None or ell == r.ell or ell in r.ell_list)):
            return r
    return None


class TestIndex:
    # The index built by Tables must answer as a linear scan of the rows.
    ELLS = [None] + [ell for ell in range(2, 32) if is_prime(ell)]

    def test_table_concrete_family(self):
        tabs = load_tables()
        for table_id in TABLE_IDS + ("t9",):
            rows = [r for r in tabs.rows if r.table == table_id]
            assert list(tabs.table(table_id)) == rows
            assert list(tabs.concrete(table_id)) == [r for r in rows if not r.is_family]
            assert list(tabs.family(table_id)) == [r for r in rows if r.is_family]

    def test_row_and_rows_for(self):
        tabs = load_tables()
        misses = 0
        for table_id in TABLE_IDS:
            for st in sorted(tabs.orders):
                assert list(tabs.rows_for(table_id, st)) == [
                    r for r in tabs.rows if r.table == table_id
                    and not r.is_family and r.group == Exceptional(st)]
                for ell in self.ELLS:
                    want = _scan_row(tabs, table_id, st, ell)
                    if want is None:
                        misses += 1
                        with pytest.raises(TableLookupError):
                            tabs.row(table_id, st, ell)
                    else:
                        assert tabs.row(table_id, st, ell) is want, (table_id, st, ell)
            if table_id == "t2":
                for st in tabs.orders:
                    assert tabs.cuspidal_primes(st) == _scan_row(tabs, "t2", st, None).ell_list
        assert misses

    def test_first_match_in_file_order(self):
        # G28 has one t1 row per prime; with no prime the first one answers
        tabs = load_tables()
        rows = tabs.rows_for("t1", 28)
        assert len(rows) > 1
        assert tabs.row("t1", 28) is rows[0]


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
        # the family rows of t4 are matched by _supercuspidal_family_label,
        # which the consistency check runs; lookup has no family rows
        label = _supercuspidal_family_label
        assert label(Imprimitive(4, 1, 2), 2) == "G(l^i,1,l^j)"
        assert label(Imprimitive(8, 4, 3), 2) == "G(l^i,l^j,n)"
        assert label(Imprimitive(1, 1, 9), 3) == "G(1,1,l^i)"
        assert label(Imprimitive(25, 1, 1), 5) == "G(l^i,1,1)"
        assert label(Imprimitive(25, 5, 1), 5) == "G(l^i,1,1)"  # the cyclic group C5
        assert {r.group_label for r in load_tables().family("t4")} == {
            "G(l^i,1,l^j)", "G(l^i,l^j,n)", "G(1,1,l^i)", "G(l^i,1,1)"}

    def test_supercuspidal_rejects_non_matching(self):
        for g, ell in [(Imprimitive(6, 1, 2), 2), (Imprimitive(4, 1, 3), 2),
                       (Imprimitive(1, 1, 6), 2)]:
            assert _supercuspidal_family_label(g, ell) is None, g
        with pytest.raises(TableLookupError):
            lookup("t4", Exceptional(28), 2)

    def test_supercuspidal_family_needs_its_t4_row(self):
        # the observation check accepts a family factor only through its
        # t4 row: without the G(l^i,1,l^j) row, G(4,1,2) at 2 is rejected
        tabs = load_tables()
        trimmed = Tables(tuple(r for r in tabs.rows
                               if (r.table, r.group_label) != ("t4", "G(l^i,1,l^j)")),
                         tabs.orders)
        assert len(trimmed.rows) == len(tabs.rows) - 1
        for g in (Imprimitive(4, 1, 2), parse_group("G(4,1,2) x G4")):
            assert _table_supercuspidal(tabs, g, 2)
            assert not _table_supercuspidal(trimmed, g, 2)
        # the other patterns still read their rows
        assert _table_supercuspidal(trimmed, Imprimitive(8, 4, 3), 2)

    def test_imprimitive_groups_have_no_row(self):
        # the family's answers are closed forms in classify, not table rows
        for g in (Imprimitive(12, 6, 3), Imprimitive(4, 1, 2), Imprimitive(25, 5, 1)):
            for table_id in ("t1", "t2", "t3", "t4", "t5"):
                with pytest.raises(TableLookupError):
                    lookup(table_id, g, 2)

    def test_reflection_table_id(self):
        # G23..G37 are in t3, G4..G22 in t3b, and each row sits in its table
        assert [reflection_table_id(st) for st in (4, 22, 23, 37)] == [
            "t3b", "t3b", "t3", "t3"]
        for table_id in ("t3", "t3b"):
            for row in load_tables().concrete(table_id):
                assert reflection_table_id(row.group.st) == table_id

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

    def test_t5_leaves_out_g16_of_g18_at_2(self):
        # t3b lists L2;~L2;G16 for G18 at l = 2, and t5 only L2 (count 2),
        # while it lists the one-class types of G9, G17 and G21.  Reported in
        # the module docstring, not registered and not patched.
        from sylowclass.cli import generate_table

        printed = {(row.group.st, row.ell, row.members[0].label)
                   for row in load_tables().concrete("t5")}
        regenerated = {(int(r["group"].split("=")[0][1:]), r["ell"], r["members"])
                       for r in generate_table("nonunique") if isinstance(r["ell"], int)}
        assert regenerated - printed == {(18, 2, "G16")}
        assert printed - regenerated == set()

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
