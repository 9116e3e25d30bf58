"""Tests of the benchmark's own code: item counts, the oracle, names, tracing."""

import json
import re
from pathlib import Path

import pytest

from seaweeds import counting
from seaweeds.compositions import BiComposition, Composition
from seaweeds.meander import index_seaweed

from perfbench import clock, run, stream, tracing, workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_census_item_count():
    assert workloads.Census.items == 21_845 + 10_922 + 5_460 == 38_227


def test_generate_item_counts_are_the_frobenius_counts():
    for (kind, n_max), count in workloads.FROBENIUS_COUNTS.items():
        assert sum(counting.generated_table(kind, n_max).entries.values()) == count
    assert workloads.Generate.items == 16_287 + 19_620 + 4_479 + 11_995


def test_verify_item_count_is_the_size_of_the_ten_slices():
    total = 0
    for kind, t in counting.EXPECTED_COEFFS:
        if kind == "seaweed":
            n_max = workloads.Verify.SEAWEED_N_MAX
        else:
            n_max = 2 * workloads.Verify.PARABOLIC_N_MAX + (kind == "parabolic-odd")
        total += sum(counting.deficiency_table(kind, t, n_max).entries.values())
    assert workloads.Verify.items == total


def test_clock_scales_each_call_by_the_median_of_recent_calibrations(monkeypatch):
    calibrations = iter([0.02, 0.01, 0.04, 0.03, 0.05])
    monkeypatch.setattr(clock, "calibrate", lambda: next(calibrations))
    monkeypatch.setattr(clock, "CHUNK_S", 0.0)
    monkeypatch.setattr(clock, "SPEED_WINDOW", 3)
    timer = clock.Clock()
    first = timer.timed(lambda: 7)
    second = timer.timed(lambda: 1 / 0)
    timer.end_pass()
    third = timer.timed(lambda: 8)
    timer.end_pass()
    assert first.result == 7 and isinstance(second.result, ZeroDivisionError)
    assert first.scaled_s == pytest.approx(first.latency_s * clock.NOMINAL_S / 0.015)
    assert second.scaled_s == pytest.approx(second.latency_s * clock.NOMINAL_S / 0.02)
    assert third.scaled_s == pytest.approx(third.latency_s * clock.NOMINAL_S / 0.04)
    assert timer.calibrations == [0.02, 0.01, 0.04, 0.03, 0.05]


def test_closed_form_oracle_matches_union_find():
    checked = 0
    for n in range(2, 40):
        blocks = [(a, n - a) for a in range(1, n)]
        blocks += [(a, b, n - a - b) for a in range(1, n) for b in range(1, n - a)]
        for parts in blocks:
            for top, bottom in ((parts, (n,)), ((n,), parts)):
                pair = BiComposition(Composition(top), Composition(bottom))
                assert stream.closed_form_index(top, bottom) == index_seaweed(pair), pair
                checked += 1
    assert checked == 2 * sum((n - 1) + (n - 1) * (n - 2) // 2 for n in range(2, 40))


def test_request_stream_is_seeded_and_answered_correctly():
    requests = stream.build_requests(7, count=200)
    assert requests == stream.build_requests(7, count=200)
    assert requests != stream.build_requests(8, count=200)
    assert sum(r.kind in stream.INDEX_KINDS for r in requests) == 100
    for req in requests:
        assert workloads._check_answer(req, workloads.answer(req)) is None


def test_metric_names_are_well_formed_and_match_the_code():
    e2e = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == list(run.PER_LAYER)
    names = [name for name, *_ in e2e + layers]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_span_metric_has_a_traced_binding():
    spans = {name for name, _, _ in tracing.BINDINGS}
    for name, *_ in run.PER_LAYER:
        if not name.startswith(("trace.", "cli.output_bytes")):
            assert name.rsplit(".", 1)[0] in spans, name


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf(x):
        return sum(range(x))

    traced_leaf = tracer.wrap_call("leaf", leaf)

    def numbers(k):
        for i in range(k):
            yield traced_leaf(1000)

    traced_numbers = tracer.wrap_generator("numbers", numbers)
    traced_outer = tracer.wrap_call("outer", lambda: list(traced_numbers(5)))
    assert traced_outer() == [sum(range(1000))] * 5
    summary = tracer.take()
    assert summary["outer.calls"] == 1
    assert summary["numbers.calls"] == 6  # five items and the final StopIteration
    assert summary["numbers.items"] == 5
    assert summary["leaf.calls"] == 5
    assert summary["leaf.self_s"] == summary["leaf.busy_s"]
    assert abs(summary["numbers.self_s"] - (summary["numbers.busy_s"] - summary["leaf.busy_s"])) < 1e-9
    assert 0 <= summary["outer.self_s"] <= summary["outer.busy_s"] - summary["numbers.busy_s"] + 1e-9
    assert tracer.take() == {}
