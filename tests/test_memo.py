"""The per-process memo of the closed-form answers.

classify_parabolic, classify_reflection and sylow_structure are
lru_cache(maxsize=1024) functions of (g, ell); these tests pin that a
memoized answer is the one the function computes, that it is shared and
immutable, that errors are not memoized and that the memo stays bounded.
"""

import dataclasses

import pytest

from sylowclass import classify, structure
from sylowclass.classify import NotADivisorError, catalog_irreducibles
from sylowclass.groups import (
    Cyclic,
    Exceptional,
    Imprimitive,
    Sym,
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
    field = dataclasses.fields(answer)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(answer, field, None)


def test_members_are_frozen_too(cleared):
    member = classify.classify_reflection(Imprimitive(12, 6, 3), 2).members[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        member.group = Imprimitive(1, 1, 2)


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
