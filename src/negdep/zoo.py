"""Fixed catalog of test measures, plus seeded random measures.

The catalog spans the dependence spectrum: NAND measures (NR but not
stochastic covering), independent products, the anti-correlated and
positively correlated pairs, conditioned-on-sum laws, balls-in-bins
occupancy indicators, and Hadamard-derived measures that defeat NR
while staying pairwise uncorrelated.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .measure import (
    ExplicitMeasure,
    family_anti_pair,
    family_balls_bins,
    family_conditioned_sum,
    family_hadamard,
    family_independent,
    family_nand,
    family_pos_pair,
)

_HALF = Fraction(1, 2)


def zoo() -> dict[str, ExplicitMeasure]:
    """Fresh instances of the whole catalog, keyed by stable names."""
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


def random_measure(
    n: int, rng: random.Random, max_weight: int = 8
) -> ExplicitMeasure:
    """A random measure with small integer weights; support is random
    but never empty.  Denominators stay small, keeping downstream exact
    arithmetic fast."""
    weights = [rng.randint(0, max_weight) for _ in range(1 << n)]
    if not any(weights):
        weights[rng.randrange(1 << n)] = 1
    return ExplicitMeasure._from_weights(
        n, {mask: w for mask, w in enumerate(weights) if w}
    )


__all__ = ["zoo", "random_measure"]
