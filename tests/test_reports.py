"""The campaign and consistency reports are frozen values.

verify's Check, GroupReport and CampaignReport and tables' Anomaly and
ConsistencyReport are each built once from all their fields: no field can
be assigned after, two reports built from equal fields are equal, and a
GroupReport survives the pickle round trip that the worker pool puts it
through.
"""

import pickle

import pytest

from sylowclass import groups, tables, verify
from sylowclass.frozen import FrozenError
from sylowclass.groups import Imprimitive
from sylowclass.limits import DEFAULT_ORDER_CAP


KINDS = ("Check", "GroupReport", "CampaignReport", "Anomaly", "ConsistencyReport")


def _reports():
    """One report of each kind, in the order of KINDS."""
    check = verify.Check("parabolic", 2, True, "oracle order 8 vs 8")
    group = verify.GroupReport(2, 1, 2, 8, [check])
    anomaly = tables.Anomaly("order-typo", "stray x")
    return [check, group, verify.CampaignReport([group]), anomaly,
            tables.ConsistencyReport((anomaly,))]


@pytest.mark.parametrize("kind", range(len(KINDS)), ids=KINDS)
def test_no_report_field_can_be_assigned(kind):
    report = _reports()[kind]
    assert type(report).__name__ == KINDS[kind]
    for name in report._fields:
        with pytest.raises(FrozenError):
            setattr(report, name, getattr(report, name))
        with pytest.raises(FrozenError):
            delattr(report, name)


def test_reports_built_from_equal_fields_are_equal():
    for first, again in zip(_reports(), _reports()):
        assert first is not again and first == again, type(first).__name__
        assert hash(first) == hash(again)
    assert verify.GroupReport(2, 1, 2, 8) != verify.GroupReport(2, 1, 2, 8, skip_reason="cap")
    assert tables.check_consistency() == tables.check_consistency()


def test_a_group_report_keeps_its_checks_through_pickle():
    report = verify.verify_group(3, 1, 2)
    assert report.checks and not report.skipped
    again = pickle.loads(pickle.dumps(report))
    assert again == report and again.checks == report.checks
    assert again.lines() == report.lines()


def test_a_skipped_report_has_its_reason_and_no_checks():
    report = verify.verify_group(2000, 1, 2000)
    size = groups.order(Imprimitive(2000, 1, 2000))
    reason = f"|G(2000,1,2000)| exceeds cap {DEFAULT_ORDER_CAP}"
    assert report.skipped and report.checks == ()
    assert report == verify.GroupReport(2000, 1, 2000, size, skip_reason=reason)
    assert report.lines() == [f"SKIP G(2000,1,2000): {reason}"]
