"""Family specs, the fixed catalog of test measures, and seeded random
measures.

``FAMILIES`` is the one grammar of family specs, for the CLI and the
catalog: a name maps to its builder, then one ``(ARG, parser)`` pair per
``:``-part after the name.  ``parse_family`` and ``FAMILY_HELP`` read it;
a wrong number of parts, or a part its parser refuses, is a ValueError
that names the family's form.

The catalog spans the dependence spectrum: NAND measures (NR but not
stochastic covering), independent products, the anti-correlated and
positively correlated pairs, conditioned-on-sum laws, balls-in-bins
occupancy indicators, and Hadamard-derived measures that defeat NR
while staying pairwise uncorrelated.
"""

from __future__ import annotations

import random

from .measure import (
    ExplicitMeasure,
    family_anti_pair,
    family_balls_bins,
    family_conditioned_sum,
    family_hadamard,
    family_independent,
    family_nand,
    family_pos_pair,
    parse_rational,
)


_PROBS = ("p1,p2,...", lambda text: [parse_rational(t) for t in text.split(",")])
FAMILIES = {
    "nand": (family_nand, ("N", int)),
    "independent": (family_independent, _PROBS),
    "condsum": (family_conditioned_sum, _PROBS, ("LO", int), ("HI", int)),
    "balls_bins": (family_balls_bins, ("BALLS", int), ("BINS", int)),
    "hadamard": (family_hadamard, ("ORDER", int)),
    "anti_pair": (family_anti_pair,),
    "pos_pair": (family_pos_pair,),
}


def _form(name: str) -> str:
    return ":".join([name, *(arg for arg, _ in FAMILIES[name][1:])])


FAMILY_HELP = (
    f"family spec grammar: {' | '.join(map(_form, FAMILIES))} "
    "(rationals as p/q or decimals)"
)


def parse_family(spec: str) -> ExplicitMeasure:
    """The measure a family spec such as ``condsum:1/2,1/2:1:1`` names."""
    name, *parts = spec.split(":")
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; {FAMILY_HELP}")
    builder, *args = FAMILIES[name]
    wrong_form = ValueError(f"family {name} is written {_form(name)}; {FAMILY_HELP}")
    if len(parts) != len(args):
        raise wrong_form
    try:  # a part that is no number; the builder's own errors pass through
        values = [parse(part) for (_, parse), part in zip(args, parts)]
    except ValueError:
        raise wrong_form from None
    return builder(*values)


# the catalog as family specs, in the order zoo() returns it
CATALOG = {
    **{f"nand{n}": f"nand:{n}" for n in range(3, 9)},
    "independent_half4": "independent:1/2,1/2,1/2,1/2",
    "independent_mixed": "independent:1/3,2/3,1/4",
    "anti_pair": "anti_pair",
    "pos_pair": "pos_pair",
    "condsum_3_1_2": "condsum:1/2,1/2,1/2:1:2",
    "condsum_5_2_3": "condsum:1/2,1/2,1/2,1/2,1/2:2:3",
    "condsum_8_3_5": "condsum:1/2,1/2,1/2,1/2,1/2,1/2,1/2,1/2:3:5",
    "balls_bins_2_2": "balls_bins:2:2",
    "balls_bins_3_2": "balls_bins:3:2",
    "hadamard_4": "hadamard:4",
    "hadamard_8": "hadamard:8",
}


def zoo() -> dict[str, ExplicitMeasure]:
    """Fresh instances of the whole catalog, keyed by stable names."""
    return {name: parse_family(spec) for name, spec in CATALOG.items()}


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


__all__ = ["zoo", "random_measure", "parse_family", "FAMILIES", "FAMILY_HELP", "CATALOG"]
