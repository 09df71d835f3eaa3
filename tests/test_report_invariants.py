"""Every checker's report obeys one rule: a failing verdict carries its
certificate, and a passing one carries none.

Each checker of `NOTION_RUNNERS` runs on the 17 catalog measures and on
60 seeded random measures with n <= 5.  Its verdict must be one of its
notion's pair (Fails or Holds; ViolationFound or NoViolationFound for the
Rayleigh falsifier), and `certificate is None` exactly when the report is
ok.  The negative regression and stochastic covering certificates list
their keys in one order: the conditioning set, the two assignments, the
free indices, then the witness; NR's `b` and SC's `a` are the assignment
that raises one coordinate of the other.
"""

import random

import pytest

from negdep.dependence import NOTION_RUNNERS, Notion, Verdict
from negdep.measure import random_measure, zoo

PAIRS = {notion: (Verdict.FAILS, Verdict.HOLDS) for notion in Notion}
PAIRS[Notion.RAYLEIGH] = (Verdict.VIOLATION_FOUND, Verdict.NO_VIOLATION_FOUND)

# the keys of a failing NR or SC certificate, in order, and the names of
# its assignments: (the lower one, the one that raises a coordinate of it)
COVER_KEYS = {
    "nr": (["J", "a", "b", "free_indices", "down_set", "lower_mass", "upper_mass"],
           ("a", "b")),
    "sc": (["I", "a", "a_prime", "free_indices", "block", "neighborhood",
            "lower_mass", "upper_mass"], ("a_prime", "a")),
}


def _measures():
    rng = random.Random(30)
    cases = list(zoo().items())
    for k in range(60):
        n = rng.randint(1, 5)
        cases.append((f"random{k}", random_measure(n, rng, max_weight=rng.choice([1, 2, 8]))))
    return cases


@pytest.fixture(scope="module")
def reports():
    """{checker key: [(measure name, measure, report)]}."""
    measures = _measures()
    return {key: [(name, m, run(m)) for name, m in measures]
            for key, run in NOTION_RUNNERS.items()}


@pytest.mark.parametrize("key", NOTION_RUNNERS)
def test_a_certificate_exactly_when_the_verdict_fails(reports, key):
    notions = {report.notion for _, _, report in reports[key]}
    assert len(notions) == 1
    fails, holds = PAIRS[notions.pop()]
    verdicts = set()
    for name, _, report in reports[key]:
        assert report.verdict in (fails, holds), name
        assert report.ok == (report.verdict is holds), name
        assert (report.certificate is None) == report.ok, name
        assert report.to_json()["certificate"] == report.certificate, name
        verdicts.add(report.verdict)
    assert verdicts == {fails, holds}  # both sides are exercised


@pytest.mark.parametrize("key", COVER_KEYS)
def test_cover_certificates_keep_their_key_order(reports, key):
    keys, (lower, raised) = COVER_KEYS[key]
    failed = 0
    for name, m, report in reports[key]:
        cert = report.certificate
        if cert is None:
            continue
        failed += 1
        assert list(cert) == keys, name
        block = cert[keys[0]]
        assert sorted(block + cert["free_indices"]) == list(range(1, m.n + 1)), name
        low, high = cert[lower], cert[raised]
        assert len(low) == len(high) == len(block), name
        # the raised assignment sets exactly one more coordinate to 1
        assert [(x, y) for x, y in zip(low, high) if x != y] == [("0", "1")], name
    assert failed > 10
