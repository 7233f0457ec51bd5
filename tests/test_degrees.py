"""An independent check of the exceptional groups from their invariant
degrees.

The degrees of G4..G37 are typed from Lehrer-Taylor, Unitary Reflection
Groups (2009), Appendix D, and read nothing from the package.  They fix the
order (the product of the degrees) and the rank (their number).  The centre
of an irreducible reflection group is cyclic of order gcd(d_i), so when a
prime ell divides every degree, the scalar zeta_ell * I is central of order
ell and lies in every Sylow ell-subgroup.  It fixes no nonzero vector, so
no proper parabolic subgroup contains a Sylow ell-subgroup: the minimal
parabolic class is the whole group, and G is ell-cuspidal.
"""

from math import gcd, prod

import pytest

from sylowclass.classify import classify_parabolic
from sylowclass.groups import EXCEPTIONAL_ORDERS, Exceptional
from sylowclass.tables import load_tables
from sylowclass.valuation import prime_factors

DEGREES = {
    4: (4, 6), 5: (6, 12), 6: (4, 12), 7: (12, 12), 8: (8, 12),
    9: (8, 24), 10: (12, 24), 11: (24, 24), 12: (6, 8), 13: (8, 12),
    14: (6, 24), 15: (12, 24), 16: (20, 30), 17: (20, 60), 18: (30, 60),
    19: (60, 60), 20: (12, 30), 21: (12, 60), 22: (12, 20),
    23: (2, 6, 10), 24: (4, 6, 14), 25: (6, 9, 12), 26: (6, 12, 18),
    27: (6, 12, 30),
    28: (2, 6, 8, 12), 29: (4, 8, 12, 20), 30: (2, 12, 20, 30),
    31: (8, 12, 20, 24), 32: (12, 18, 24, 30),
    33: (4, 6, 10, 12, 18),
    34: (6, 12, 18, 24, 30, 42), 35: (2, 5, 6, 8, 9, 12),
    36: (2, 6, 8, 10, 12, 14, 18),
    37: (2, 8, 12, 14, 18, 20, 24, 30),
}

RANKS = {**dict.fromkeys(range(4, 23), 2), **dict.fromkeys(range(23, 28), 3),
         **dict.fromkeys(range(28, 33), 4), 33: 5, 34: 6, 35: 6, 36: 7, 37: 8}

# (st, ell) with ell dividing every degree of G<st>, that is |Z(G)|
CENTRAL = [(st, ell) for st, degs in DEGREES.items()
           for ell in prime_factors(gcd(*degs))]
CENTRAL_IDS = [f"G{st} at {ell}" for st, ell in CENTRAL]

# the cuspidal table prints the primes (2, 5) for G32, against its
# parabolic table: the registered anomaly t2-g30-g32-block
T2_BLOCK = {(32, 3)}


def test_every_exceptional_group_has_its_degrees():
    assert sorted(DEGREES) == sorted(EXCEPTIONAL_ORDERS) == list(range(4, 38))


@pytest.mark.parametrize("st", sorted(DEGREES), ids=lambda st: f"G{st}")
def test_order_is_the_product_of_the_degrees(st):
    assert prod(DEGREES[st]) == EXCEPTIONAL_ORDERS[st]


@pytest.mark.parametrize("st", sorted(DEGREES), ids=lambda st: f"G{st}")
def test_rank_is_the_number_of_degrees(st):
    assert len(DEGREES[st]) == RANKS[st]


def test_central_pairs():
    assert len(CENTRAL) == 51


@pytest.mark.parametrize("st, ell", CENTRAL, ids=CENTRAL_IDS)
def test_a_central_prime_makes_the_group_cuspidal(st, ell):
    assert classify_parabolic(Exceptional(st), ell).equals_whole_group


@pytest.mark.parametrize("st, ell", CENTRAL, ids=CENTRAL_IDS)
def test_the_cuspidal_table_lists_a_central_prime(st, ell):
    listed = ell in load_tables().cuspidal_primes(st)
    assert listed != ((st, ell) in T2_BLOCK)
