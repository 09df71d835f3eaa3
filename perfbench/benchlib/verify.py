"""Independent re-checks of negdep's outputs.

Every function here works from raw atoms, a dict ``{mask: Fraction}``
where variable i (1-based) is bit i-1, with textbook formulas.  Nothing
is imported from negdep, so a bug in a checker cannot hide behind the
same bug in its re-check.  Each ``check_*`` function returns ``None``
when the claim holds and a one-line description of the problem
otherwise.

Bitstring conventions follow negdep's JSON: character t of a bitstring
over an index block is the t-th smallest index of that block.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Optional

ZERO = Fraction(0)

HOLDING = ("Holds", "NoViolationFound")

# (antecedent, consequent): theorems relating the notions, used to check
# that the seven verdicts on one measure are mutually consistent
IMPLICATIONS = (
    ("StochasticCovering", "NegRegression"),
    ("NegRegression", "CylinderDep"),
    ("NegAssociation", "CylinderDep"),
    ("CylinderDep", "PairwiseNC"),
    ("CondNegAssociation", "NegAssociation"),
    ("CondNegAssociation", "NegRegression"),
)


def bits(text: str) -> int:
    """Mask of a bitstring; character t is bit t."""
    if any(c not in "01" for c in text):
        raise ValueError(f"not a bitstring: {text!r}")
    return sum(1 << t for t, c in enumerate(text) if c == "1")


def select(mask: int, indices) -> int:
    """Pack the bits of ``mask`` at the 1-based ``indices``, in order."""
    return sum(1 << t for t, i in enumerate(indices) if mask >> (i - 1) & 1)


def below(x: int, y: int) -> bool:
    """Coordinatewise x <= y."""
    return x & ~y == 0


def up_closed(points: set, d: int) -> bool:
    return all(p | (1 << j) in points for p in points for j in range(d))


def down_closed(points: set, d: int) -> bool:
    return all(p & ~(1 << j) in points for p in points for j in range(d))


def denominator(atoms: dict) -> int:
    """Common denominator of the atom masses."""
    return math.lcm(*(p.denominator for p in atoms.values()))


def mass(atoms: dict, points) -> Fraction:
    return sum((atoms.get(x, ZERO) for x in points), ZERO)


def conditional(atoms: dict, n: int, fixed, values):
    """Law of the other coordinates given X_fixed = values.

    Returns ``(free indices, {packed free pattern: mass})``, or ``None``
    when the event has probability zero.
    """
    free = [i for i in range(1, n + 1) if i not in fixed]
    out: dict[int, Fraction] = {}
    total = ZERO
    for x, p in atoms.items():
        if all((x >> (k - 1) & 1) == v for k, v in zip(fixed, values)):
            y = select(x, free)
            out[y] = out.get(y, ZERO) + p
            total += p
    if total == 0:
        return None
    return free, {y: p / total for y, p in out.items()}


def covariance(atoms: dict, i: int, j: int) -> Fraction:
    pi = sum((p for x, p in atoms.items() if x >> (i - 1) & 1), ZERO)
    pj = sum((p for x, p in atoms.items() if x >> (j - 1) & 1), ZERO)
    pij = sum(
        (p for x, p in atoms.items() if x >> (i - 1) & 1 and x >> (j - 1) & 1),
        ZERO,
    )
    return pij - pi * pj


def cylinder_sides(atoms: dict, s, value: int) -> tuple[Fraction, Fraction]:
    """(P[X_i = value for all i in s], prod of P[X_i = value])."""
    joint = sum(
        (p for x, p in atoms.items() if all((x >> (i - 1) & 1) == value for i in s)),
        ZERO,
    )
    prod = Fraction(1)
    for i in s:
        prod *= sum(
            (p for x, p in atoms.items() if (x >> (i - 1) & 1) == value), ZERO
        )
    return joint, prod


# ---------------------------------------------------------------------------
# Holds verdicts that are cheap to decide by brute force
# ---------------------------------------------------------------------------


def nc_holds(atoms: dict, n: int) -> bool:
    return all(
        covariance(atoms, i, j) <= 0 for i, j in combinations(range(1, n + 1), 2)
    )


def cylinder_holds(atoms: dict, n: int) -> bool:
    for size in range(2, n + 1):
        for s in combinations(range(1, n + 1), size):
            for value in (0, 1):
                joint, prod = cylinder_sides(atoms, s, value)
                if joint > prod:
                    return False
    return True


# ---------------------------------------------------------------------------
# Certificates of the notion checkers
# ---------------------------------------------------------------------------


def _partition(first, second, universe) -> Optional[str]:
    if not first or not second:
        return "empty side in bipartition"
    if set(first) & set(second) or sorted(first + second) != sorted(universe):
        return f"{first} and {second} do not partition {universe}"
    return None


def _upset(strings, d: int, label: str):
    if any(len(s) != d for s in strings):
        return None, f"{label} has a point of the wrong width"
    points = {bits(s) for s in strings}
    if not up_closed(points, d):
        return None, f"{label} is not up-closed"
    return points, None


def _association(atoms: dict, n: int, cert: dict) -> Optional[str]:
    first, second = sorted(cert["I"]), sorted(cert["J"])
    problem = _partition(first, second, list(range(1, n + 1)))
    if problem:
        return problem
    a, problem = _upset(cert["A"], len(first), "A")
    if problem:
        return problem
    b, problem = _upset(cert["B"], len(second), "B")
    if problem:
        return problem
    pa = pb = pab = ZERO
    for x, p in atoms.items():
        in_a = select(x, first) in a
        in_b = select(x, second) in b
        pa += p if in_a else 0
        pb += p if in_b else 0
        pab += p if in_a and in_b else 0
    cov = pab - pa * pb
    if cov != Fraction(cert["covariance"]):
        return f"covariance is {cov}, certificate says {cert['covariance']}"
    if cov <= 0:
        return f"covariance {cov} is not positive"
    return None


def _cna(atoms, n, cert):
    fixed = list(cert["K"])
    values = [int(c) for c in cert["values"]]
    if len(values) != len(fixed):
        return "K and values differ in length"
    cond = conditional(atoms, n, fixed, values)
    if cond is None:
        return "conditioning event has probability zero"
    free, law = cond
    position = {i: t + 1 for t, i in enumerate(free)}
    if any(i not in position for i in list(cert["I"]) + list(cert["J"])):
        return "I or J meets the conditioning set"
    inner = dict(cert)
    inner["I"] = [position[i] for i in cert["I"]]
    inner["J"] = [position[j] for j in cert["J"]]
    return _association(law, len(free), inner)


def _pair_laws(atoms, n, block, high, low):
    """Conditionals given the larger and the smaller assignment on block."""
    hi_vals = [int(c) for c in high]
    lo_vals = [int(c) for c in low]
    if len(hi_vals) != len(block) or len(lo_vals) != len(block):
        return None, "assignment width differs from its block"
    if not below(bits(low), bits(high)) or low == high:
        return None, f"{low} is not strictly below {high}"
    upper = conditional(atoms, n, block, lo_vals)
    lower = conditional(atoms, n, block, hi_vals)
    if upper is None or lower is None:
        return None, "a conditioning event has probability zero"
    return (lower, upper), None


def _nr(atoms, n, cert):
    laws, problem = _pair_laws(atoms, n, list(cert["J"]), cert["b"], cert["a"])
    if problem:
        return problem
    (free, lower), (_, upper) = laws
    if list(cert["free_indices"]) != free:
        return "free indices do not match"
    down = {bits(s) for s in cert["down_set"]}
    if any(len(s) != len(free) for s in cert["down_set"]):
        return "down set has a point of the wrong width"
    if not down_closed(down, len(free)):
        return "down set is not down-closed"
    lm, um = mass(lower, down), mass(upper, down)
    if lm != Fraction(cert["lower_mass"]) or um != Fraction(cert["upper_mass"]):
        return f"masses are {lm}, {um}; certificate says otherwise"
    if not lm < um:
        return f"lower mass {lm} is not below upper mass {um}"
    return None


def _covering_neighbourhood(block, support) -> set:
    return {
        y for y in support
        if any(below(x, y) and (x ^ y).bit_count() <= 1 for x in block)
    }


def _hall(lower, upper, block_strings, hood_strings, lower_mass, upper_mass):
    block = {bits(s) for s in block_strings}
    hood = _covering_neighbourhood(block, upper)
    if {bits(s) for s in hood_strings} != hood:
        return "neighbourhood does not match the covering neighbours of the block"
    lm, um = mass(lower, block), mass(upper, hood)
    if lm != Fraction(lower_mass) or um != Fraction(upper_mass):
        return f"masses are {lm}, {um}; certificate says otherwise"
    if not lm > um:
        return f"block mass {lm} does not exceed neighbourhood mass {um}"
    return None


def _sc(atoms, n, cert):
    if (bits(cert["a"]) ^ bits(cert["a_prime"])).bit_count() != 1:
        return "a and a_prime are not a covering pair"
    laws, problem = _pair_laws(
        atoms, n, list(cert["I"]), cert["a"], cert["a_prime"]
    )
    if problem:
        return problem
    (free, lower), (_, upper) = laws
    if list(cert["free_indices"]) != free:
        return "free indices do not match"
    return _hall(
        lower, upper, cert["block"], cert["neighborhood"],
        cert["lower_mass"], cert["upper_mass"],
    )


def _nc(atoms, n, cert):
    cov = covariance(atoms, cert["i"], cert["j"])
    if cov != Fraction(cert["covariance"]) or cov <= 0:
        return f"covariance is {cov}, certificate says {cert['covariance']}"
    return None


def _cyl(atoms, n, cert):
    s = list(cert["S"])
    if len(s) < 2 or len(set(s)) != len(s):
        return "S needs at least two distinct indices"
    joint, prod = cylinder_sides(atoms, s, 1 if cert["side"] == "ones" else 0)
    if joint != Fraction(cert["lhs"]) or prod != Fraction(cert["rhs"]):
        return f"sides are {joint}, {prod}; certificate says otherwise"
    if not joint > prod:
        return f"{joint} does not exceed {prod}"
    return None


def rayleigh_difference(atoms: dict, n: int, i: int, j: int, z) -> Fraction:
    """dF/dzi * dF/dzj - F * d2F/dzi dzj for F(z) = sum_x p(x) prod z^x."""

    def partial(wrt) -> Fraction:
        total = ZERO
        for x, p in atoms.items():
            if any(not x >> (k - 1) & 1 for k in wrt):
                continue
            term = p
            for k in range(1, n + 1):
                if k not in wrt and x >> (k - 1) & 1:
                    term *= z[k - 1]
            total += term
        return total

    return partial((i,)) * partial((j,)) - partial(()) * partial((i, j))


def _rayleigh(atoms, n, cert):
    z = [Fraction(c) for c in cert["z"]]
    if len(z) != n or not 1 <= cert["i"] < cert["j"] <= n:
        return "point or pair out of range"
    delta = rayleigh_difference(atoms, n, cert["i"], cert["j"], z)
    if delta != Fraction(cert["delta"]) or delta >= 0:
        return f"Rayleigh difference is {delta}, certificate says {cert['delta']}"
    return None


_CERTIFICATE_CHECKS = {
    "PairwiseNC": _nc,
    "CylinderDep": _cyl,
    "NegAssociation": _association,
    "NegRegression": _nr,
    "CondNegAssociation": _cna,
    "StochasticCovering": _sc,
    "RayleighFalsifier": _rayleigh,
}


def check_certificate(notion: str, atoms: dict, n: int, cert) -> Optional[str]:
    """Re-verify the certificate of a Fails or ViolationFound verdict."""
    if not isinstance(cert, dict):
        return "failing verdict without a certificate"
    try:
        return _CERTIFICATE_CHECKS[notion](atoms, n, cert)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed certificate: {type(exc).__name__}: {exc}"


def check_implications(verdicts: dict) -> Optional[str]:
    """Verdicts by notion name; every implication must be respected."""
    for stronger, weaker in IMPLICATIONS:
        if stronger in verdicts and weaker in verdicts:
            if verdicts[stronger] in HOLDING and verdicts[weaker] not in HOLDING:
                return f"{stronger} holds but {weaker} fails"
    return None


# ---------------------------------------------------------------------------
# Couplings
# ---------------------------------------------------------------------------


def check_coupling(doc: dict, lower: dict, upper: dict, n: int, covering: bool):
    """A coupling document must have the two laws as its marginals and a
    monotone support (moving at most one coordinate when covering)."""
    try:
        if doc["n"] != n or bool(doc["covering"]) != covering:
            return "coupling header does not match the request"
        row: dict[int, Fraction] = {}
        col: dict[int, Fraction] = {}
        for entry in doc["pairs"]:
            x, y, p = bits(entry["x"]), bits(entry["y"]), Fraction(entry["p"])
            if p <= 0:
                return "coupling pair with non-positive mass"
            if not below(x, y):
                return f"pair {entry['x']} -> {entry['y']} is not monotone"
            if covering and (x ^ y).bit_count() > 1:
                return f"pair {entry['x']} -> {entry['y']} moves two coordinates"
            row[x] = row.get(x, ZERO) + p
            col[y] = col.get(y, ZERO) + p
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed coupling: {type(exc).__name__}: {exc}"
    if row != lower:
        return "first marginal differs from the lower measure"
    if col != upper:
        return "second marginal differs from the upper measure"
    return None


def check_down_set(down, lower: dict, upper: dict, n: int, lower_mass, upper_mass):
    """A down-closed set that the upper law weighs more than the lower
    law refutes dominance (Strassen)."""
    down = set(down)
    if any(x >> n for x in down):
        return "down set point outside the cube"
    if not down_closed(down, n):
        return "down set is not down-closed"
    lm, um = mass(lower, down), mass(upper, down)
    if lm != Fraction(lower_mass) or um != Fraction(upper_mass):
        return f"masses are {lm}, {um}; certificate says otherwise"
    if not lm < um:
        return f"lower mass {lm} is not below upper mass {um}"
    return None


def check_coupling_failure(doc: dict, lower: dict, upper: dict, n: int, covering: bool):
    cert = doc.get("certificate")
    if doc.get("dominates") is not False or not isinstance(cert, dict):
        return "failed coupling without a certificate"
    try:
        if covering:
            if cert["kind"] != "covering_cut":
                return f"covering mode returned a {cert['kind']} certificate"
            return _hall(
                lower, upper, cert["block"], cert["neighborhood"],
                cert["lower_mass"], cert["upper_mass"],
            )
        if cert["kind"] != "down_set":
            return f"plain mode returned a {cert['kind']} certificate"
        return check_down_set(
            [bits(s) for s in cert["down_set"]], lower, upper, n,
            cert["lower_mass"], cert["upper_mass"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed certificate: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Martingale trees, tails and exponential moments
# ---------------------------------------------------------------------------

REL_TOL = 1e-12


def expectation(atoms: dict, values) -> Fraction:
    return sum((p * values[x] for x, p in atoms.items()), ZERO)


def check_tree(root, values, atoms: dict, limit: int) -> Optional[str]:
    """Recompute every node value and branch probability from the atoms
    and f, and bound every increment interval by ``limit``."""
    if root.y != expectation(atoms, values) or root.probability != 1:
        return "root value differs from E[f]"
    stack = [root]
    while stack:
        node = stack.pop()
        if node.leaf_mask is not None:
            if node.y != values[node.leaf_mask]:
                return "leaf value differs from f"
            if node.probability != atoms.get(node.leaf_mask):
                return "leaf probability differs from the atom's mass"
            continue
        kids = [c for c in (node.child0, node.child1) if c is not None]
        for child, p in ((node.child0, node.p0), (node.child1, node.p1)):
            if child is not None and child.probability != node.probability * p:
                return "branch probabilities do not multiply along the tree"
        if len(kids) == 2:
            y = node.p0 * node.child0.y + node.p1 * node.child1.y
            gap = abs(node.child0.y - node.child1.y)
        else:
            y, gap = kids[0].y, ZERO
        if node.y != y:
            return "node value is not the average of its children"
        if gap > limit:
            return f"increment interval of width {gap} exceeds {limit}"
        stack.extend(kids)
    return None


def tail_bound(n: int, t: Fraction, monotone: bool) -> float:
    exponent = -2 * t * t / n if monotone else -t * t / (2 * n)
    return math.exp(float(exponent))


def check_tail(report, atoms: dict, values, n: int, monotone: bool):
    """Every row's exact tails and the overall verdict, from the atoms."""
    mu = expectation(atoms, values)
    if report.mu != mu:
        return "tail report mean differs from E[f]"
    for row in report.rows:
        up = sum((p for x, p in atoms.items() if values[x] >= mu + row.t), ZERO)
        down = sum((p for x, p in atoms.items() if values[x] <= mu - row.t), ZERO)
        if row.upper_exact != up or row.lower_exact != down:
            return f"exact tails at t={row.t} differ"
        worst = float(max(up, down))
        ok = worst <= tail_bound(n, row.t, False) * (1 + REL_TOL)
        if monotone:
            ok = ok and worst <= tail_bound(n, row.t, True) * (1 + REL_TOL)
        if not ok or row.passed is not True:
            return f"tail bound fails at t={row.t}"
    if report.verdict is not True:
        return "tail verdict is not pass"
    return None


def check_moments(node_moments, chain_moments, lambdas, atoms, values,
                  n: int, monotone: bool) -> Optional[str]:
    """Hoeffding's bound at every internal node (``node_moments`` pairs a
    node with its moments at ``lambdas``), the chain bound, and the chain
    moment against the direct atom sum."""
    for node, moments in node_moments:
        width = float(node.beta - node.alpha)
        for lam, moment in zip(lambdas, moments, strict=True):
            if moment > math.exp(lam * lam * width * width / 8) * (1 + REL_TOL):
                return "node exponential moment above Hoeffding's bound"
    mu = expectation(atoms, values)
    cap = n / 8 if monotone else n / 2
    for lam, chain in zip(lambdas, chain_moments, strict=True):
        if chain > math.exp(lam * lam * cap) * (1 + REL_TOL):
            return f"chain moment above its bound at lambda={lam}"
        direct = sum(
            float(p) * math.exp(lam * float(values[x] - mu)) for x, p in atoms.items()
        )
        if abs(chain - direct) > REL_TOL * max(1.0, abs(direct)):
            return f"chain moment differs from the atom sum at lambda={lam}"
    return None
