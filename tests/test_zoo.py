"""The catalog, read through the family table, against the builder calls
it was written as before the table existed."""

from fractions import Fraction

from negdep.measure import (
    CATALOG,
    family_anti_pair,
    family_balls_bins,
    family_conditioned_sum,
    family_hadamard,
    family_independent,
    family_nand,
    family_pos_pair,
    parse_family,
    zoo,
)

_HALF = Fraction(1, 2)


def frozen_zoo():
    return {
        "nand3": family_nand(3),
        "nand4": family_nand(4),
        "nand5": family_nand(5),
        "nand6": family_nand(6),
        "nand7": family_nand(7),
        "nand8": family_nand(8),
        "independent_half4": family_independent([_HALF] * 4),
        "independent_mixed": family_independent(
            [Fraction(1, 3), Fraction(2, 3), Fraction(1, 4)]
        ),
        "anti_pair": family_anti_pair(),
        "pos_pair": family_pos_pair(),
        "condsum_3_1_2": family_conditioned_sum([_HALF] * 3, 1, 2),
        "condsum_5_2_3": family_conditioned_sum([_HALF] * 5, 2, 3),
        "condsum_8_3_5": family_conditioned_sum([_HALF] * 8, 3, 5),
        "balls_bins_2_2": family_balls_bins(2, 2),
        "balls_bins_3_2": family_balls_bins(3, 2),
        "hadamard_4": family_hadamard(4),
        "hadamard_8": family_hadamard(8),
    }


def test_zoo_matches_the_frozen_builder_calls():
    new, old = zoo(), frozen_zoo()
    assert list(new) == list(old)
    for name, m in old.items():
        assert new[name] == m, name
        assert new[name].to_json() == m.to_json(), name


def test_zoo_reads_every_entry_from_its_spec():
    assert list(CATALOG) == list(zoo())
    for name, m in zoo().items():
        assert parse_family(CATALOG[name]) == m, name
