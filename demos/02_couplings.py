"""Stochastic dominance and monotone couplings, with certificates.

For measures on {0,1}^n, `upper` dominates `lower` when every up-closed
event gets at least as much mass under `upper`.  When that holds, a
max-flow construction produces a coupling supported on coordinatewise-
comparable pairs; when it fails, the min cut yields a down-closed set
that `lower` overloads.
"""

import json
from fractions import Fraction

from negdep import (
    Assignment,
    bits_from_mask,
    build_monotone_coupling,
    check_dominance,
    family_nand,
)


def show_pair(title, lower, upper):
    print(f"--- {title} ---")
    res = check_dominance(lower, upper)
    print(f"  dominates: {res.dominates}")
    if res.dominates:
        c = build_monotone_coupling(lower, upper)
        for x, y, p in c.pairs():
            xs, ys = bits_from_mask(x, lower.n), bits_from_mask(y, lower.n)
            print(f"    couple {xs} -> {ys}  mass {p}")
        print(f"  expected Hamming displacement: {c.displacement()}")
    else:
        print(f"  cut certificate: {json.dumps(res.certificate.to_json())}")
        assert res.certificate.check(lower, upper)
        print("  certificate re-verified against both laws")
    print()


def main():
    m = family_nand(3)
    # Conditioning the first bit of nand(3) two ways gives a dominated pair:
    # the law given x1=1 sits below the law given x1=0.
    lower = m.condition(Assignment.of({1: 1}))
    upper = m.condition(Assignment.of({1: 0}))
    show_pair("nand(3) conditioned on x1=1 (lower) vs x1=0 (upper)", lower, upper)

    # Swapping the roles breaks dominance and produces a cut.
    show_pair("same pair with roles swapped", upper, lower)


if __name__ == "__main__":
    main()
