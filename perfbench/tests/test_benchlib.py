"""Tests of the benchmark's own code: self-time arithmetic, certificate
re-checks, seeded inputs, counter repeatability and the speed meter.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import copy
import json
import re
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

import negdep
import negdep.cli
from benchlib import verify
from benchlib.harness import run_pass
from benchlib.speed import SpeedMeter
from benchlib.trace import Tracer, run_traced_pass, self_times
from benchlib.workloads import NOTION_FLAGS, WORKLOADS, digest

ROOT = Path(__file__).resolve().parents[2]


# -- self time ---------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.5, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("d", 11.0, 12.0, -1, 1),
    ]
    assert self_times(spans) == [3.0, 1.5, 1.5, 4.0, 1.0]
    # self times partition the traced time of each top-level span
    assert sum(self_times(spans)[:4]) == 10.0


def test_tracer_records_parents_and_restores_patches():
    import types

    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = Tracer()
    tracer.patch(mod, "outer", "outer")
    tracer.patch(mod, "inner", "inner")
    tracer.op = 7
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert mod.inner is original
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7)]


# -- certificates --------------------------------------------------------------


def atoms_of(m):
    return dict(m.items())


def report(flag, m):
    return negdep.cli.NOTION_RUNNERS[flag](m)


@pytest.mark.parametrize(
    "flag, family",
    [
        ("nc", negdep.family_pos_pair),
        ("cyl", lambda: negdep.family_hadamard(4)),
        ("na", negdep.family_pos_pair),
        ("nr", lambda: negdep.family_hadamard(8)),
        ("cna", lambda: negdep.family_hadamard(4)),
        ("sc", lambda: negdep.family_nand(3)),
        ("rayleigh", negdep.family_pos_pair),
    ],
)
def test_certificates_verify_and_tampering_is_rejected(flag, family):
    m = family()
    rep = report(flag, m)
    assert not rep.ok
    notion = rep.notion.value
    cert = rep.certificate
    assert verify.check_certificate(notion, atoms_of(m), m.n, cert) is None
    for key, value in cert.items():
        if isinstance(value, str) and "/" in value or key in ("covariance", "delta"):
            bad = copy.deepcopy(cert)
            bad[key] = str(Fraction(value) + Fraction(1, 7))
            assert verify.check_certificate(notion, atoms_of(m), m.n, bad), key
    # a certificate for another measure does not verify
    other = negdep.family_independent([Fraction(1, 2)] * m.n)
    assert verify.check_certificate(notion, atoms_of(other), m.n, cert)


def test_tampered_down_set_is_rejected():
    m = negdep.family_hadamard(8)
    cert = report("nr", m).certificate
    atoms = atoms_of(m)
    assert verify.check_certificate("NegRegression", atoms, m.n, cert) is None
    top = "1" * len(cert["free_indices"])
    assert top not in cert["down_set"]
    bad = dict(cert, down_set=cert["down_set"] + [top])
    assert "down-closed" in verify.check_certificate("NegRegression", atoms, m.n, bad)


def test_coupling_documents_are_checked():
    lower = negdep.new_explicit(2, [("00", "1/2"), ("10", "1/2")])
    upper = negdep.new_explicit(2, [("10", "1/2"), ("11", "1/2")])
    doc = negdep.build_monotone_coupling(lower, upper).to_json()
    la, ua = atoms_of(lower), atoms_of(upper)
    assert verify.check_coupling(doc, la, ua, 2, False) is None
    bad = copy.deepcopy(doc)
    bad["pairs"][0]["p"] = "1/3"
    assert verify.check_coupling(bad, la, ua, 2, False)
    swapped = copy.deepcopy(doc)
    for pair in swapped["pairs"]:
        pair["x"], pair["y"] = pair["y"], pair["x"]
    assert "not monotone" in verify.check_coupling(swapped, ua, la, 2, False)
    # the reverse pair fails, with a down-set certificate that verifies
    with pytest.raises(negdep.DominanceFails) as info:
        negdep.build_monotone_coupling(upper, lower)
    fail = {"dominates": False, "certificate": info.value.certificate.to_json()}
    assert verify.check_coupling_failure(fail, ua, la, 2, False) is None
    fail["certificate"]["upper_mass"] = "0"
    assert verify.check_coupling_failure(fail, ua, la, 2, False)


# -- seeded inputs ---------------------------------------------------------------


def built(name, seed, tmp_path, keep=None):
    """A set-up workload, cut down to the cases whose labels are in
    ``keep`` when given."""
    workdir = Path(tempfile.mkdtemp(dir=tmp_path))
    workload = WORKLOADS[name](seed, workdir)
    workload.setup()
    if keep is not None:
        workload.cases = [c for c in workload.cases if c[0] in keep]
        workload.steps = [s for s in workload.steps if s.label.split(":")[0] in keep]
    workload.prepare()
    return workload


def fingerprint_inputs(workload):
    return digest(repr([sorted(a.items()) for a in workload.inputs]))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_seeded_inputs_only(name, tmp_path):
    one = built(name, 1, tmp_path)
    again = built(name, 1, tmp_path)
    two = built(name, 2, tmp_path)
    assert fingerprint_inputs(one) == fingerprint_inputs(again)
    assert [s.label for s in one.steps] == [s.label for s in again.steps]
    if name == "nand_sweep":
        assert fingerprint_inputs(one) == fingerprint_inputs(two)
    else:
        assert fingerprint_inputs(one) != fingerprint_inputs(two)
    # the amount of work does not depend on the seed
    assert len(one.steps) == len(two.steps)


# -- counters ------------------------------------------------------------------


SMALL_CATALOG = {"nand3", "nand4", "pos_pair", "hadamard_4", "condsum_3_1_2", "random_0"}


def traced_counts(workload):
    """The traced run's path: counts, and the untraced and traced passes."""
    tracer = Tracer()
    untraced, traced = run_traced_pass(workload, tracer, negdep)
    counts = {k: v for k, v in tracer.metrics().items() if not k.endswith("_s")}
    return counts, untraced, traced


def test_counters_repeat_exactly_and_tracing_changes_no_output(tmp_path):
    workload = built("catalog_check", 3, tmp_path, keep=SMALL_CATALOG)
    first, untraced, traced = traced_counts(workload)
    second, _, _ = traced_counts(workload)
    assert first == second
    # CLI output includes the checkers' work counters
    assert traced.fingerprints == untraced.fingerprints
    assert not (untraced.errors or traced.errors or untraced.problems)
    assert first["dependence.cna.conditionings_checked"] > 0
    assert first["measure.prob_of_assignment_calls"] > 0
    assert first["bitops.extractors_built"] > 0
    assert first["cli.stdout_bytes"] > 0


def test_small_catalog_outputs_pass_their_checks(tmp_path):
    cheap = {"nand3", "nand4", "pos_pair", "hadamard_4", "random_0", "random_2"}
    workload = built("catalog_check", 4, tmp_path, keep=cheap)
    result = run_pass(workload, check=workload.check_step, repeat=False)
    assert not result.errors
    assert result.problems == {}
    # a wrong recorded verdict is reported
    label, source, expected, m = workload.cases[0]
    workload.cases[0] = (label, source, dict(expected, sc="Holds"), m)
    result = run_pass(workload, check=workload.check_step, repeat=False)
    assert list(result.problems) == [NOTION_FLAGS.index("sc")]


# -- BENCHMARK.json ----------------------------------------------------------------


def test_benchmark_json_follows_its_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    seen = set()
    for section, keys in (
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for m in spec[section]:
            assert set(m) == keys
            assert name.match(m["name"]) and unit.match(m["unit"])
            assert m["better"] in ("higher", "lower")
            assert m["name"] not in seen
            seen.add(m["name"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(Tracer().metrics()) <= per_layer


def busy() -> None:
    """Pure-Python work that calls many Python functions."""
    total = Fraction(0)
    for i in range(1, 20000):
        total += Fraction(1, i % 97 + 1)


def test_a_slower_process_shows_in_rescaled_times():
    # a profile hook slows this process and not the meter's sibling, so
    # the rescaled time must grow; a probe run inside this process would
    # slow down with it and cancel the change out
    spans = {False: [], True: []}
    with SpeedMeter() as meter:
        for hooked in (False, True) * 3:
            sys.setprofile((lambda *args: None) if hooked else None)
            try:
                start = time.perf_counter()
                busy()
                end = time.perf_counter()
            finally:
                sys.setprofile(None)
            spans[hooked].append((start, end))

    def rescaled(hooked):
        return statistics.median((e - s) / meter.factor(s, e) for s, e in spans[hooked])

    assert rescaled(True) > 1.5 * rescaled(False)


def test_speed_meter_uses_the_probes_near_an_interval():
    meter = SpeedMeter(margin=0.5)
    meter.stamps = [0.0, 0.4, 1.0, 1.4, 5.0, 5.2, 5.4]
    meter.slowdowns = [1.0, 1.2, 1.1, 1.3, 2.0, 2.2, 1.8]
    assert meter.factor(0.5, 1.0) == pytest.approx(1.15)
    assert meter.factor(5.1, 5.1) == 2.0
    # no probe nearby: the whole run's median
    assert meter.factor(3.0, 3.1) == 1.3
    # probe time inside an interval is taken out before rescaling
    meter.ends = [t + 0.1 for t in meter.stamps]
    assert meter.stolen(0.05, 1.05) == pytest.approx(0.05 + 0.1 + 0.05)
    assert meter.stolen(0.5, 0.9) == 0
    assert meter.seconds(0.5, 1.05) == pytest.approx((0.55 - 0.05) / 1.15)
