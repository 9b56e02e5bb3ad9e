"""Tests of the benchmark's own arithmetic and checks.

Run from the root of the checkout:  PYTHONPATH=src python3 -m pytest perfbench
The last test needs gammaroots on the path and is skipped without it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as Q
from pathlib import Path

import pytest

import hostspeed
import replay
import run
import tracer


# --- the tail percentile rule -------------------------------------------------

@pytest.mark.parametrize("n, p", [(20, 50), (75, 86), (760, 98), (842, 98), (1000, 99), (5000, 99)])
def test_tail_percentile_examples(n, p):
    assert tracer.tail_percentile(n) == p


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(20, 3000):
        p = tracer.tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < 10


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        tracer.tail_percentile(19)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracer.percentile(values, 50) == 50
    assert tracer.percentile(values, 98) == 98
    assert tracer.percentile([3.0], 90) == 3.0


# --- span arithmetic -----------------------------------------------------------

# (name, start, end, parent, case): A covers B and C; C covers a second B.
TREE = [
    ("A", 0, 100, -1, 0),
    ("B", 10, 40, 0, 0),
    ("C", 50, 90, 0, 0),
    ("B", 60, 70, 2, 0),
    ("A", 200, 250, -1, 1),
]


def test_self_time_subtracts_direct_children():
    totals = tracer.layer_totals(TREE)
    ns = 1e-9
    assert totals["A"]["calls"] == 2
    assert totals["A"]["self_s"] == pytest.approx((100 - 30 - 40 + 50) * ns)
    assert totals["C"]["self_s"] == pytest.approx((40 - 10) * ns)
    assert totals["B"]["self_s"] == pytest.approx((30 + 10) * ns)
    assert totals["B"]["s"] == pytest.approx(40 * ns)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(tracer.root_seconds(TREE))


def test_inclusive_time_does_not_count_recursion_twice():
    spans = [("f", 0, 100, -1, -1), ("f", 10, 60, 0, -1), ("g", 20, 30, 1, -1)]
    totals = tracer.layer_totals(spans)
    assert totals["f"]["s"] == pytest.approx(100e-9)
    assert totals["f"]["self_s"] == pytest.approx((50 + 40) * 1e-9)
    assert totals["g"]["s"] == pytest.approx(10e-9)


def test_case_durations_take_the_outermost_case_span():
    assert tracer.case_durations_ms(TREE, "A") == pytest.approx([100e-6, 50e-6])


def test_tracer_records_parents_cases_and_notes():
    t = tracer.Tracer("outer")

    def inner(x):
        return x + 1

    traced_inner = t.wrap("inner", inner, note=lambda args, result: result)

    def outer(x):
        return traced_inner(x) + traced_inner(x)

    traced_outer = t.wrap("outer", outer)
    assert traced_outer(1) == 4
    assert traced_outer(5) == 12
    assert traced_inner(0) == 1
    shape = [(name, parent, case) for name, _, _, parent, case in t.spans]
    assert shape == [
        ("outer", -1, 0), ("inner", 0, 0), ("inner", 0, 0),
        ("outer", -1, 1), ("inner", 3, 1), ("inner", 3, 1),
        ("inner", -1, -1),
    ]
    assert all(start <= end for _, start, end, _, _ in t.spans)
    assert t.notes == {"inner": [2, 2, 6, 6, 1]}


# --- host speed scaling -----------------------------------------------------------

def test_speed_is_the_mean_of_nominal_over_sample_time():
    nominal = hostspeed.NOMINAL_UNIT_NS
    marks = [(0, nominal), (1000 * nominal, 1002 * nominal)]
    assert hostspeed.speed(marks) == pytest.approx((1 + 0.5) / 2)
    assert hostspeed.speed([]) == 1.0


def test_busy_time_drops_the_samples_and_scales_by_their_speed():
    nominal = hostspeed.NOMINAL_UNIT_NS
    slow, fast = (10 * nominal, 12 * nominal), (40 * nominal, 40 * nominal + nominal // 2)
    marks = [slow, fast]
    assert hostspeed.sampled_ns(marks, 0, 11 * nominal) == nominal
    assert hostspeed.sampled_ns(marks, 11 * nominal, 50 * nominal) == nominal + nominal // 2
    # Each interval takes the speed of its own samples: 0.5 before 30, 2 after.
    assert hostspeed.busy_s(marks, 0, 30 * nominal) == pytest.approx(28 * nominal * 0.5 / 1e9)
    assert hostspeed.busy_s(marks, 30 * nominal, 50 * nominal) == \
        pytest.approx(19.5 * nominal * 2 / 1e9)
    # An interval without samples takes the speed of all of them.
    assert hostspeed.busy_s(marks, 20 * nominal, 30 * nominal) == \
        pytest.approx(10 * nominal * 1.25 / 1e9)


def test_sampler_records_samples_and_stops():
    import signal
    import time

    sampler = hostspeed.Sampler()
    sampler.start()
    end = time.monotonic() + 10 * hostspeed.INTERVAL_S
    while time.monotonic() < end:
        pass
    sampler.stop()
    taken = len(sampler.marks)
    assert taken >= 3
    assert all(start < stop for start, stop in sampler.marks)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.marks) == taken


# --- the independent certificate replay -----------------------------------------

def _valid_certificate():
    """gamma(1/6) gamma(5/6) * (gamma(1/6) gamma(4/6) / gamma(2/6))^2 on the 1/6 grid."""
    n = 6
    relations = [("reflection(1)", Q(1)), ("multiplication(2,1)", Q(2))]
    terms = {1: 3, 5: 1, 4: 2, 2: -2}
    value = {2: Q(2) * (1 - Q(4, 6))}
    cert = {
        "relations": [{"tag": tag, "coefficient": str(c)} for tag, c in relations],
        "derived_constant": [
            {"base": 2, "exponent_numerator": 2, "exponent_denominator": 3},
        ],
    }
    return n, terms, value, cert


def test_replay_accepts_a_valid_certificate():
    n, terms, value, cert = _valid_certificate()
    assert value == {2: Q(2, 3)}
    assert replay.check_certificate(n, terms, cert) == value


@pytest.mark.parametrize("tamper", [
    lambda c: c["relations"][1].update(coefficient="3"),
    lambda c: c["relations"][0].update(tag="reflection(2)"),
    lambda c: c["relations"][0].update(tag="reflection(3)"),
    lambda c: c["relations"][1].update(tag="multiplication(4,1)"),
    lambda c: c["relations"].pop(),
    lambda c: c["derived_constant"][0].update(exponent_numerator=1),
    lambda c: c["derived_constant"].append(
        {"base": 3, "exponent_numerator": 1, "exponent_denominator": 2}),
])
def test_replay_rejects_a_tampered_certificate(tamper):
    n, terms, _, cert = _valid_certificate()
    tamper(cert)
    assert replay.check_certificate(n, terms, cert) is None


def test_lattice_check_counts_tampered_and_wrong_verdicts():
    n, terms, value, cert = _valid_certificate()
    words = [
        {"N": n, "terms": sorted(terms.items()), "constant": value},
        {"N": n, "terms": sorted(terms.items()), "constant": value},
        {"N": n, "terms": [(1, 1), (5, -1)], "constant": None},
        {"N": n, "terms": [(1, 1), (5, -1)], "constant": None},
    ]
    tampered = json.loads(json.dumps(cert))
    tampered["relations"][0]["coefficient"] = "-1"
    tally = replay.Tally()
    replay.check_lattice(words, [cert, tampered, None, cert], tally)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert "no certificate that replays" in tally.errors[0]
    assert "outside the span" in tally.errors[1]


def test_verify_report_check_rejects_a_wrong_right_side():
    n, terms, value, cert = _valid_certificate()
    report = {
        "family": "G", "rank": 2, "index": 1, "variant": "Fprime", "mode": "exact",
        "status": "proved_exact", "certificate": cert,
        "lhs_word": {"N": n, "coeff": [], "terms": [{"j": j, "exponent": e} for j, e in terms.items()]},
        "rhs_constant": [{"base": 2, "exponent_numerator": 2, "exponent_denominator": 3}],
    }
    tally = replay.Tally()
    replay.check_verify_report({"reports": [report]}, ["G"], "exact", 60, tally)
    assert tally.failed == 3  # the other three G2 cases are missing
    report["rhs_constant"][0]["exponent_numerator"] = 1
    tally = replay.Tally()
    replay.check_verify_report({"reports": [report]}, ["G"], "exact", 60, tally)
    assert tally.failed == 4
    assert "right side" in tally.errors[0]


def test_relation_formulas_hold_numerically():
    for n in (2, 5, 12, 30):
        for tag in replay.relation_tags(n):
            vector, value = replay.relation(tag, n)
            lhs = sum(e * (math.lgamma(j / n) - math.lgamma(1 - j / n)) for j, e in vector.items())
            rhs = sum(float(e) * math.log(p) for p, e in value.items())
            assert lhs == pytest.approx(rhs, abs=1e-9), (n, tag)


# --- inputs and expectations ----------------------------------------------------

def test_expected_case_counts():
    assert len(replay.expected_cases(replay.VERIFY_RUNS["sweep"][0])) == 842
    assert len(replay.expected_cases(replay.VERIFY_RUNS["crosscheck"][0])) == 75


def test_lattice_words_follow_the_seed():
    words = replay.lattice_words(7)
    assert words == replay.lattice_words(7)
    assert words != replay.lattice_words(8)
    assert len(words) == 95 * 8
    outside = [w for w in words if w["constant"] is None]
    assert len(outside) == 94 * 4
    assert all(w["N"] >= 3 for w in outside)


def test_residual_log10_survives_underflow():
    assert replay.residual_log10("2.5e-808") == pytest.approx(math.log10(2.5) - 808)
    assert replay.residual_log10("0.0") == -math.inf


def test_parity_stripping_tolerates_a_missing_wall_time():
    with_field = json.dumps({"reports": [{"a": 1, "wall_time_ms": 0.5}], "passed": True},
                            sort_keys=True, separators=(",", ":"))
    without = json.dumps({"reports": [{"a": 1}], "passed": True},
                         sort_keys=True, separators=(",", ":"))
    assert run.canonical_without_wall_time(with_field) == without
    assert run.canonical_without_wall_time(without) == without


def test_replay_agrees_with_the_prover_on_seeded_words():
    pytest.importorskip("gammaroots")
    from gammaroots.gammaword import GammaWord
    from gammaroots.prover import prove_constant

    words = [w for w in replay.lattice_words(3) if w["N"] <= 24]
    certificates = []
    for w in words:
        c = prove_constant(GammaWord(w["N"], tuple(w["terms"])))
        certificates.append(None if c is None else c.to_json_obj())
    tally = replay.Tally()
    replay.check_lattice(words, certificates, tally)
    assert tally.attempted == len(words)
    assert tally.failed == 0, tally.errors


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
