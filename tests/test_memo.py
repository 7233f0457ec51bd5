"""The per-process memo of the closed-form answers.

classify_parabolic, classify_reflection and sylow_structure are
lru_cache(maxsize=1024) functions of (g, ell); these tests pin that a
memoized answer is the one the function computes, that it is shared and
immutable, that errors are not memoized and that the memo stays bounded.
The classification answers render their text once and keep it; the tests
below the first rule pin that reports read from it equal freshly computed
ones, that rendering leaves the answers frozen, equal and hashable, and
that answers nobody prints stay unrendered.  Below the second rule: each
answer keeps one report row, which a repeated report copies after one
memo lookup, and each Sylow term keeps its rendered text; both equal
fresh ones, leave the objects frozen, equal and hashable, and go away
with cache_clear().  Below the third rule: each rendered table is kept on
the loaded tables, a product keeps its hash, and every group value hashes
by its fields.
"""

import copy
import pickle

import pytest

from sylowclass import classify, cli, structure, tables
from sylowclass.classify import NotADivisorError, catalog_irreducibles
from sylowclass.frozen import FrozenError
from sylowclass.groups import (
    Cyclic,
    Exceptional,
    Imprimitive,
    Sym,
    TableLookupError,
    group_primes,
    parse_group,
    product_of,
)

MEMOIZED = (classify.classify_parabolic, classify.classify_reflection,
            structure.sylow_structure)

PRODUCTS = [
    product_of([Imprimitive(4, 2, 3), Exceptional(4)]),
    product_of([Sym(5), Sym(5), Cyclic(3)]),
    parse_group("G(12,6,3) x G28"),
    parse_group("G4 x G(6,1,5)"),
]


def _rebuilt(value, **changes):
    """A new value of the same type from the fields of value, some changed."""
    return type(value)(*[changes.get(name, getattr(value, name)) for name in value._fields])


def _outcome(fn, g, ell):
    """The answer, or the type of the error raised."""
    try:
        return fn(g, ell)
    except ValueError as exc:
        return type(exc)


@pytest.fixture
def cleared():
    for fn in MEMOIZED:
        fn.cache_clear()
    yield
    for fn in MEMOIZED:
        fn.cache_clear()


@pytest.mark.parametrize("fn", MEMOIZED, ids=lambda fn: fn.__name__)
def test_memoized_answers_equal_computed_ones(fn, cleared):
    catalog = list(catalog_irreducibles(16, 8)) + PRODUCTS
    for g in catalog:
        for ell in group_primes(g):
            first = _outcome(fn, g, ell)
            assert _outcome(fn, g, ell) == first == _outcome(fn.__wrapped__, g, ell), (
                g, ell)


@pytest.mark.parametrize("fn", MEMOIZED, ids=lambda fn: fn.__name__)
def test_repeat_returns_the_same_frozen_object(fn, cleared):
    g = parse_group("G(12,6,3) x G(6,1,5)")
    answer = fn(g, 2)
    assert fn(g, 2) is answer
    assert fn.cache_info().hits == 1
    assert issubclass(FrozenError, AttributeError)
    with pytest.raises(FrozenError):
        setattr(answer, answer._fields[0], None)


def test_members_are_frozen_too(cleared):
    member = classify.classify_reflection(Imprimitive(12, 6, 3), 2).members[0]
    with pytest.raises(FrozenError):
        member.group = Imprimitive(1, 1, 2)
    with pytest.raises(FrozenError):
        del member.group


@pytest.mark.parametrize("fn", MEMOIZED, ids=lambda fn: fn.__name__)
def test_errors_are_not_memoized(fn, cleared):
    for _ in range(2):
        with pytest.raises(NotADivisorError):
            fn(Sym(3), 5)
    info = fn.cache_info()
    assert info.currsize == 0 and info.hits == 0 and info.misses == 2


@pytest.mark.parametrize("fn", MEMOIZED, ids=lambda fn: fn.__name__)
def test_memo_stays_bounded(fn, cleared):
    for m in range(1, 1101):
        fn(Cyclic(2 * m), 2)
    info = fn.cache_info()
    assert info.maxsize == 1024
    assert info.misses == 1100 and info.currsize <= 1024


# ---------------------------------------------------------------------------
# Each answer renders its text once, into the one value it keeps (its
# report_row; its members keep nothing); cli.classification_report reads it.

ANSWERS = (classify.classify_parabolic, classify.classify_reflection)
KINDS = ("parabolic", "reflection")
TEXT = {"report_row"}


def _rendered(obj) -> set:
    """The attributes an answer or member holds beyond its fields."""
    return set(vars(obj)) - set(obj._fields)


def test_warm_reports_equal_cold_ones(cleared):
    catalog = list(catalog_irreducibles(16, 8)) + PRODUCTS
    warm = {}
    for _ in range(2):  # the second pass reads the text the first one stored
        for g in catalog:
            for ell in group_primes(g):
                for kind in KINDS:
                    warm[g, ell, kind] = cli.classification_report(g, ell, kind)
    for (g, ell, kind), report in warm.items():
        for fn in ANSWERS:
            fn.cache_clear()
        assert cli.classification_report(g, ell, kind) == report, (g, ell, kind)


def test_reports_are_fresh_dicts(cleared):
    g = parse_group("G(12,6,3) x G(6,1,5)")
    first = cli.classification_report(g, 2, "reflection")
    want = copy.deepcopy(first)
    first["group"] = "changed"
    first["classes"][0]["label"] = "changed"
    first["classes"].append({"label": "extra"})
    second = cli.classification_report(g, 2, "reflection")
    assert second == want
    assert second is not first and second["classes"] is not first["classes"]
    assert all(a is not b for a, b in zip(first["classes"], second["classes"]))


@pytest.mark.parametrize("spec,ell", [("G(12,6,3)", 2), ("G(12,6,3) x G28", 3),
                                      ("G28", 2), ("G(6,1,5)", 5)])
def test_rendering_keeps_answers_frozen_equal_and_hashable(spec, ell, cleared):
    g = parse_group(spec)
    for fn, kind in zip(ANSWERS, KINDS):
        answer = fn(g, ell)
        twin = fn.__wrapped__(g, ell)  # computed afresh, never rendered
        before = hash(answer)
        cli.classification_report(g, ell, kind)
        assert _rendered(answer) == TEXT
        assert all(_rendered(m) == set() for m in answer.members)
        assert not _rendered(twin)
        assert answer == twin and hash(answer) == hash(twin) == before
        assert answer.members == twin.members
        assert hash(answer.members) == hash(twin.members)
        for name in ("group", "report_row", "equals_whole_group"):
            with pytest.raises(FrozenError):
                setattr(answer, name, None)
        with pytest.raises(FrozenError):
            answer.members[0].display_label = "changed"


def test_each_order_is_formatted_once_per_answer(cleared, monkeypatch):
    formatted = []
    original = classify.format_factorization

    def recording(pairs):
        formatted.append(pairs)
        return original(pairs)

    monkeypatch.setattr(classify, "format_factorization", recording)
    # ell | m: the member is G itself; ell | p: three twists of G(4,2,3)
    g = Imprimitive(12, 6, 3)
    for kind, ell, orders in (("parabolic", 2, ["2^6*3^3"] * 2),
                              ("reflection", 2, ["2^6*3^3"] + ["2^6*3"] * 3)):
        formatted.clear()
        report = cli.classification_report(g, ell, kind)
        # |G| and each member's order, once each, by the answer's report_row
        assert list(map(original, formatted)) == orders
        assert [c["order_factored"] for c in report["classes"]] == orders[1:]
        formatted.clear()
        assert cli.classification_report(g, ell, kind) == report
        assert formatted == []


def test_factor_answers_inside_a_product_are_not_rendered(cleared):
    g = parse_group("G(12,6,3) x G28 x G(6,1,5)")
    for ell in group_primes(g):
        for kind in KINDS:
            cli.classification_report(g, ell, kind)
    for fn in ANSWERS:
        for f in g.factors:
            for ell in group_primes(f):
                answer = fn(f, ell)  # the memoized factor answer
                assert not _rendered(answer), (fn.__name__, f, ell)
                assert not any(_rendered(m) for m in answer.members)


# ---------------------------------------------------------------------------
# Each answer keeps its report row (classify.SubgroupClassResult.report_row),
# which cli.classification_report copies, and render_term keeps each Sylow
# term's text on the term; both go away with the memoized object.


def test_warm_rows_and_terms_equal_cold_ones(cleared):
    catalog = list(catalog_irreducibles(16, 8)) + PRODUCTS
    for _ in range(2):  # the second pass reads the rows and texts the first one kept
        for g in catalog:
            for ell in group_primes(g):
                for fn in ANSWERS:
                    answer = fn(g, ell)
                    row = answer.report_row
                    assert answer.report_row is row
                    assert row == fn.__wrapped__(g, ell).report_row, (fn.__name__, g, ell)
                term = _outcome(structure.sylow_structure, g, ell)
                if isinstance(term, type):  # no Sylow description: raised, not kept
                    assert _outcome(structure.sylow_structure.__wrapped__, g, ell) is term
                    continue
                text = structure.render_term(term)
                assert text == structure.render_term(
                    structure.sylow_structure.__wrapped__(g, ell)), (g, ell)


def test_report_copies_the_kept_row(cleared):
    g = parse_group("G(12,6,3) x G(6,1,5)")
    for fn, kind in zip(ANSWERS, KINDS):
        report = cli.classification_report(g, 2, kind)
        group, order, classes, cuspidal, supercuspidal = fn(g, 2).report_row
        assert report == {
            "group": group, "order_factored": order, "ell": 2, "kind": kind,
            "classes": [{"label": label, "order_factored": member_order, "twist_index": twist}
                        for label, member_order, twist in classes],
            "cuspidal": cuspidal, "supercuspidal": supercuspidal}


def test_a_repeated_report_is_one_lookup(cleared):
    g = parse_group("G(12,6,3) x G28")
    for kind in KINDS:
        cli.classification_report(g, 2, kind)
    before = [fn.cache_info() for fn in ANSWERS]
    for kind in KINDS:
        cli.classification_report(g, 2, kind)
    after = [fn.cache_info() for fn in ANSWERS]
    assert [a.hits - b.hits for a, b in zip(after, before)] == [1, 1]
    assert [a.misses for a in after] == [b.misses for b in before]


def test_a_product_past_the_class_limit_is_not_supercuspidal(cleared):
    # 3^11 minimal reflection classes: the reflection lookup raises, the
    # parabolic row says "not supercuspidal" and keeps it
    g = parse_group("G(6,6,3)^11")
    first = cli.classification_report(g, 2, "parabolic")
    assert first["supercuspidal"] is False
    misses = classify.classify_reflection.cache_info().misses
    assert cli.classification_report(g, 2, "parabolic") == first
    assert classify.classify_reflection.cache_info().misses == misses
    with pytest.raises(classify.TooManyClassesError):
        cli.classification_report(g, 2, "reflection")


def test_cache_clear_drops_the_row_with_its_answer(cleared, monkeypatch):
    formatted = []
    original = classify.format_factorization
    monkeypatch.setattr(classify, "format_factorization",
                        lambda pairs: formatted.append(pairs) or original(pairs))
    g = Imprimitive(12, 6, 3)
    first = cli.classification_report(g, 2, "parabolic")
    assert len(formatted) == 2  # |G| and the one member's order
    assert cli.classification_report(g, 2, "parabolic") == first
    assert len(formatted) == 2
    kept = classify.classify_parabolic(g, 2)
    classify.classify_parabolic.cache_clear()
    assert cli.classification_report(g, 2, "parabolic") == first
    assert len(formatted) == 4  # a new answer renders a new row
    assert classify.classify_parabolic(g, 2) is not kept


def test_a_memoized_term_renders_once(cleared, monkeypatch):
    g = parse_group("G(12,6,3)^2 x G28")
    rendered = []
    for kind in structure.StructureTerm.__subclasses__():  # the seven kinds
        original = kind._write
        monkeypatch.setattr(kind, "_write",
                            lambda t, original=original: rendered.append(t) or original(t))
    term = structure.sylow_structure(g, 2)
    text = structure.render_term(term)
    # the two G(12,6,3) factors share one memoized term: rendered once
    factor = structure.sylow_structure(Imprimitive(12, 6, 3), 2)
    assert term.factors[:2] == (factor, factor) and term.factors[0] is factor
    assert rendered.count(factor) == 1
    assert text == "(A(4,2,3):sd:C2) x (A(4,2,3):sd:C2) x (A(2,1,4):sd:W(2,2))"
    rendered.clear()
    assert structure.render_term(structure.sylow_structure(g, 2)) is text
    assert rendered == []
    structure.sylow_structure.cache_clear()
    assert structure.render_term(structure.sylow_structure(g, 2)) == text
    assert rendered  # a new term renders again


TERMS = {
    "trivial": lambda: structure.Trivial(),
    "cyclic": lambda: structure.CyclicGroup(3),
    "wreath": lambda: structure.IteratedWreath(2, 2),
    "diagonal": lambda: structure.DiagonalPart(9, 3, 2),
    "direct": lambda: structure.DirectProduct(
        (structure.CyclicGroup(2), structure.IteratedWreath(2, 2))),
    "semidirect": lambda: structure.SemidirectProduct(
        structure.DiagonalPart(9, 3, 2), structure.CyclicGroup(3), "permuting coordinates"),
    "named": lambda: structure.Named("Q8"),
}


@pytest.mark.parametrize("make", TERMS.values(), ids=TERMS)
def test_rendering_keeps_terms_frozen_equal_and_hashable(make):
    term, twin = make(), make()
    before = hash(term)
    text = structure.render_term(term)
    assert structure.render_term(term) is text
    assert "text" in vars(term) and "text" not in vars(twin)
    assert term == twin and hash(term) == hash(twin) == before
    assert repr(term) == repr(twin)
    for name in term._fields:
        with pytest.raises(FrozenError):
            setattr(term, name, None)
    with pytest.raises(FrozenError):
        term.text = "changed"
    for other in (_rebuilt(term), copy.copy(term), copy.deepcopy(term),
                  pickle.loads(pickle.dumps(term))):
        assert other == term and hash(other) == before, other
        assert structure.render_term(other) == text
    assert structure.render_term(twin) == text


def test_a_replaced_term_renders_its_own_fields():
    term = structure.CyclicGroup(3)
    assert structure.render_term(term) == "C3"
    changed = _rebuilt(term, order=5)
    assert changed != term and structure.render_term(changed) == "C5"
    assert structure.render_term(term) == "C3"


# ---------------------------------------------------------------------------
# cli.render_table keeps each (table, format) text on the loaded tables, and
# tables.load_tables.cache_clear() drops it; a Product keeps its hash.

FORMATS = ("json", "markdown")
VALID_PAIRS = {(k, fmt) for k in cli.TABLE_NAMES for fmt in FORMATS}


@pytest.fixture
def fresh_tables():
    tables.load_tables.cache_clear()
    yield tables.load_tables()
    tables.load_tables.cache_clear()


def test_kept_renders_equal_fresh_ones(fresh_tables):
    kept = {key: cli.render_table(*key) for key in sorted(VALID_PAIRS)}
    assert fresh_tables.renders == kept
    for key, text in kept.items():
        assert cli.render_table(*key) is text  # read back, not rendered again
    for key, text in kept.items():
        tables.load_tables.cache_clear()
        assert not tables.load_tables().renders
        assert cli.render_table(*key) == text


def test_first_render_runs_the_guards(fresh_tables, monkeypatch):
    checked = []
    original = tables.check_consistency
    monkeypatch.setattr(tables, "check_consistency",
                        lambda: checked.append(1) or original())
    for _ in range(3):
        cli.render_table("cuspidal", "json")
    assert checked == [1]

    def drift(row):
        raise RuntimeError("table drift")

    monkeypatch.setattr(cli, "_cross_check_row", drift)
    for _ in range(2):  # a failed render is not kept, so the guard runs again
        with pytest.raises(RuntimeError, match="table drift"):
            cli.render_table("parabolic", "markdown")
    assert set(fresh_tables.renders) == {("cuspidal", "json")}


def test_unknown_table_raises_every_time_and_keeps_nothing(fresh_tables):
    for _ in range(3):
        with pytest.raises(TableLookupError):
            cli.render_table("t1", "json")
    assert fresh_tables.renders == {}


def test_kept_renders_stay_within_the_valid_pairs(fresh_tables):
    for _ in range(2):
        for k in cli.TABLE_NAMES:
            for fmt in FORMATS + ("text",):
                if fmt in FORMATS:
                    cli.render_table(k, fmt)
                else:  # any other format is an error, also once markdown is kept
                    with pytest.raises(ValueError, match="json or markdown"):
                        cli.render_table(k, fmt)
                assert set(fresh_tables.renders) <= VALID_PAIRS
    assert set(fresh_tables.renders) == VALID_PAIRS


@pytest.mark.parametrize("fmt", ["text", "JSON", "Markdown", "md", ""])
def test_other_formats_raise_and_keep_nothing(fresh_tables, fmt):
    for table_id in cli.TABLE_NAMES:
        with pytest.raises(ValueError, match="json or markdown"):
            cli.render_table(table_id, fmt)
    assert fresh_tables.renders == {}


def test_member_parses_its_label_once(fresh_tables, monkeypatch):
    member = fresh_tables.row("t1", 28, 3).members[0]
    calls = []
    monkeypatch.setattr(tables, "parse_group",
                        lambda label: calls.append(label) or parse_group(label))
    assert member.group == member.group == parse_group(member.label)
    assert calls == [member.label]
    with pytest.raises(FrozenError):
        member.label = "changed"


GROUP_SPECS = ["G(12,6,3)", "G28", "C5", "G(12,6,3) x G28 x G(6,1,5)",
               "A1^3 x E8", "G(6,6,3)^40"]


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_group_hash_is_structural(spec):
    g, twin = parse_group(spec), parse_group(spec)
    assert g is not twin and g == twin
    first = hash(g)
    assert hash(g) == first == hash(twin)
    for f in getattr(g, "factors", ()):
        assert hash(f) == hash(_rebuilt(f))
    for other in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g),
                  _rebuilt(g)):
        assert other == g and hash(other) == first, other
    with pytest.raises(FrozenError):
        setattr(g, g._fields[0], None)
    assert g == twin and hash(g) == first


def test_product_hashes_its_factors_once(monkeypatch):
    calls = []
    original = Imprimitive.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Imprimitive, "__hash__", counting)
    g = parse_group("G(12,6,3) x G28 x G(6,1,5)")
    first = hash(g)
    assert len(calls) == 2
    assert hash(g) == hash(g) == first and len(calls) == 2
    assert "_hash" not in vars(pickle.loads(pickle.dumps(g)))


def test_group_hash_follows_the_fields():
    g = Imprimitive(12, 6, 3)
    hash(g)
    changed = _rebuilt(g, n=4)
    assert changed != g and changed == Imprimitive(12, 6, 4)
    assert hash(changed) == hash(Imprimitive(12, 6, 4))
    product = product_of([g, Exceptional(28)])
    hash(product)
    swapped = _rebuilt(product, factors=product.factors[::-1])
    assert swapped != product and hash(swapped) == hash(product_of([Exceptional(28), g]))


def test_equal_products_built_apart_share_a_memo_entry(cleared):
    first = classify.classify_reflection(parse_group("G(12,6,3) x G28"), 2)
    again = classify.classify_reflection(
        product_of([Imprimitive(12, 6, 3), Exceptional(28)]), 2)
    assert again is first
    assert classify.classify_reflection.cache_info().hits == 1
