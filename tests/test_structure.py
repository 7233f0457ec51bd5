import json
from collections import Counter
from pathlib import Path

import pytest

from sylowclass.classify import NotADivisorError, catalog_irreducibles, classify_reflection
from sylowclass.groups import (Cyclic, Exceptional, Imprimitive, Product, Sym, group_primes,
                               order, parse_group, product_of)
from sylowclass import structure
from sylowclass.structure import (
    CyclicGroup,
    DiagonalPart,
    DirectProduct,
    IteratedWreath,
    Named,
    SemidirectProduct,
    Trivial,
    direct_product,
    render_term,
    structure_order,
    sylow_structure,
    sylow_symmetric,
)
from sylowclass.valuation import nu, nu_factorial, prime_factors

PRIMES = (2, 3, 5, 7)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def imprimitive_grid():
    """The imprimitive catalog (m <= 12, n <= 6) and a few ranks up to 40,
    where lambda(ell, n) has parts of several sizes."""
    yield from (g for g in catalog_irreducibles() if isinstance(g, Imprimitive))
    for m in (1, 4, 6, 9, 10):
        for n in (17, 26, 40):
            yield Imprimitive(m, 1, n)
            yield Imprimitive(m, m, n)


class TestStructureOrder:
    def test_examples(self):
        assert structure_order(IteratedWreath(2, 2)) == 8 == 2 ** nu_factorial(2, 4)
        assert structure_order(DiagonalPart(9, 3, 2)) == 81 // 3 == 27
        assert structure_order(Named("Q8")) == 8
        assert structure_order(Named("SD16")) == 16
        assert structure_order(Named("Sp4_3_Sylow3")) == 81
        assert structure_order(Trivial()) == 1

    def test_products(self):
        t = DirectProduct((CyclicGroup(4), IteratedWreath(2, 2)))
        assert structure_order(t) == 32
        t = SemidirectProduct(DiagonalPart(4, 2, 3), CyclicGroup(2))
        assert structure_order(t) == 32 * 2

    def test_named_tags_are_closed(self):
        with pytest.raises(ValueError):
            Named("D8")

    @pytest.mark.parametrize("tag", sorted(structure._NAMED_ORDERS))
    def test_named_tag_is_a_whole_sylow_subgroup(self, tag):
        # each tag is the answer for some exceptional group, of its ell-part order
        hits = [(Exceptional(st), ell) for st in range(4, 38)
                for ell in group_primes(Exceptional(st))
                if sylow_structure(Exceptional(st), ell) == Named(tag)]
        assert hits
        for g, ell in hits:
            assert structure_order(Named(tag)) == ell ** nu(ell, order(g)), g


class TestSylowSymmetric:
    def test_examples(self):
        assert sylow_symmetric(4, 2) == IteratedWreath(2, 2)
        assert sylow_symmetric(6, 2) == DirectProduct(
            (CyclicGroup(2), IteratedWreath(2, 2)))
        assert structure_order(sylow_symmetric(6, 2)) == 16
        assert sylow_symmetric(5, 5) == CyclicGroup(5)

    def test_memoized(self):
        # every block of a G(m,p,n) term asks for its tower
        assert sylow_symmetric(12, 2) is sylow_symmetric(12, 2)
        assert sylow_symmetric.cache_info().maxsize == 1024

    def test_order_matches_legendre(self):
        for ell in PRIMES:
            for n in range(1, 201):
                term = sylow_symmetric(n, ell)
                assert structure_order(term) == ell ** nu_factorial(ell, n)

    def test_trivial_below_ell(self):
        assert sylow_symmetric(4, 5) == Trivial()
        for ell in PRIMES:
            assert sylow_symmetric(0, ell) == Trivial()


class TestSylowStructure:
    def test_named_exceptional(self):
        assert sylow_structure(Exceptional(4), 2) == Named("Q8")
        assert sylow_structure(Exceptional(12), 2) == Named("SD16")
        assert sylow_structure(Exceptional(16), 2) == Named("Q8")
        assert sylow_structure(Exceptional(8), 3) == CyclicGroup(3)
        assert sylow_structure(Exceptional(24), 7) == CyclicGroup(7)
        assert sylow_structure(Exceptional(25), 3) == Named("Sp4_3_Sylow3")
        assert sylow_structure(Exceptional(35), 3) == Named("Sp4_3_Sylow3")

    def test_swap_product(self):
        term = sylow_structure(Exceptional(32), 2)
        assert isinstance(term, SemidirectProduct)
        assert term.normal == DirectProduct((Named("Q8"), Named("Q8")))
        assert term.acting == CyclicGroup(2)
        assert "swap" in term.action_note
        assert structure_order(term) == 128

    def test_semidirect_collapses_to_diagonal(self):
        term = sylow_structure(Imprimitive(9, 3, 2), 3)
        assert term == DiagonalPart(9, 3, 2)
        assert structure_order(term) == 27

    def test_exceptional_reduction(self):
        # G14 at 2 reduces through its reflection answer G12 to SD16
        assert sylow_structure(Exceptional(14), 2) == Named("SD16")
        # G30 = H4 at 2 reduces through D4 = G(2,2,4)
        term = sylow_structure(Exceptional(30), 2)
        assert structure_order(term) == 2**6

    def test_products_skip_ell_free_factors(self):
        g = product_of([Sym(4), Cyclic(3)])
        assert sylow_structure(g, 2) == IteratedWreath(2, 2)

    def test_cyclic(self):
        assert sylow_structure(Cyclic(8), 2) == CyclicGroup(8)
        assert sylow_structure(Cyclic(12), 3) == CyclicGroup(3)

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisorError):
            sylow_structure(Sym(4), 5)

    def test_rank_one_is_the_cyclic_ell_part(self):
        for g in imprimitive_grid():
            if g.n == 1:
                for ell in prime_factors(g.m):
                    assert render_term(sylow_structure(g, ell)) == \
                        f"C{ell ** nu(ell, g.m)}", (g, ell)

    def test_ell_coprime_to_m_is_the_symmetric_sylow(self):
        for g in imprimitive_grid():
            for ell in prime_factors(order(g)):
                if g.m % ell:
                    assert sylow_structure(g, ell) == sylow_symmetric(g.n, ell), (g, ell)

    def test_sylow_of_g_is_the_sylow_of_its_reflection_member(self):
        # the reduction the module rests on: an ell-Sylow subgroup of G is
        # one of the member of its minimal reflection class, whose direct
        # factors are the Sylow subgroups of the member's factors
        def direct_factors(term):
            if isinstance(term, DirectProduct):
                return Counter(term.factors)
            return Counter() if isinstance(term, Trivial) else Counter([term])

        for g in catalog_irreducibles(16, 8):
            if not isinstance(g, Imprimitive):
                continue
            for ell in group_primes(g):
                member = classify_reflection(g, ell).members[0].group
                parts = member.factors if isinstance(member, Product) else (member,)
                via_member = Counter()
                for h in parts:
                    if ell in group_primes(h):
                        via_member += direct_factors(sylow_structure(h, ell))
                assert direct_factors(sylow_structure(g, ell)) == via_member, (g, ell)

    def test_order_identity_everywhere(self):
        for g in catalog_irreducibles():
            size = order(g)
            for ell in prime_factors(size):
                term = sylow_structure(g, ell)
                assert structure_order(term) == ell ** nu(ell, size), (g, ell)


class TestRendering:
    def test_grammar_samples(self):
        assert render_term(IteratedWreath(2, 2)) == "W(2,2)"
        assert render_term(Named("SD16")) == "SD16"
        assert render_term(DiagonalPart(9, 3, 2)) == "A(9,3,2)"
        assert render_term(sylow_symmetric(6, 2)) == "C2 x W(2,2)"
        assert render_term(sylow_structure(Exceptional(32), 2)) == \
            "(Q8 x Q8):sd:C2"
        assert render_term(
            SemidirectProduct(DiagonalPart(9, 3, 3), IteratedWreath(3, 1))
        ) == "A(9,3,3):sd:W(3,1)"
        assert render_term(Trivial()) == "1"

    def test_normalization(self):
        assert direct_product([]) == Trivial()
        assert direct_product([Trivial(), CyclicGroup(2)]) == CyclicGroup(2)
        flat = direct_product(
            [CyclicGroup(2), DirectProduct((CyclicGroup(3), CyclicGroup(5)))])
        assert flat == DirectProduct(
            (CyclicGroup(2), CyclicGroup(3), CyclicGroup(5)))

    def test_each_text_spells_the_order_of_its_term(self, monkeypatch):
        # perfbench's checks parse a rendered term without the package: an
        # order for each printed text that is independent of the term's own
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import checks

        # every (group, ell) of the catalog, and every Sylow query of the
        # query_mix reference, the products among them
        pairs = [(g, ell) for g in catalog_irreducibles(16, 8) for ell in group_primes(g)]
        answers = json.loads((PERFBENCH / "reference" / "query_mix.json").read_text())["answers"]
        queries = [key.split("|")[1:] for key in answers if key.startswith("sylow|")]
        pairs += [(parse_group(spec), int(ell)) for spec, ell in queries]
        assert sum(" x " in spec for spec, _ in queries) == 186
        for g, ell in pairs:
            term = sylow_structure(g, ell)
            assert checks.term_order(render_term(term)) == structure_order(term), (g, ell)
        assert len(pairs) == 1895
