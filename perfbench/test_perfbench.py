"""Tests of the benchmark itself: tracing arithmetic, oracles, seeding, and
the bypass ("flat") predictions on a short traced run of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def test_self_time_on_hand_built_span_tree():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf(dt):
        clock.advance(dt)

    leaf_w = tracer._wrap(t, leaf, "partitions.leaf")

    def inner():
        clock.advance(2)
        leaf_w(4)

    inner_w = tracer._wrap(t, inner, "cumulants.inner")

    def outer():
        clock.advance(1)
        inner_w()
        clock.advance(1)
        leaf_w(3)

    tracer._wrap(t, outer, "cumulants.outer")()

    # outer spans 11 s; 7 s of it are inside the other layer's leaf calls.
    assert t.root_s == 11
    assert t.self_s["cumulants.outer"] == 4      # its own 2 s plus inner's 2 s
    assert t.self_s["cumulants.inner"] == 2
    assert t.self_s["partitions.leaf"] == 7
    assert t.self_s["cumulants"] == 4            # credited once, at the outer call
    assert t.self_s["partitions"] == 7
    assert t.calls["partitions.leaf"] == 2
    by_name = {s[1]: s for s in t.spans}
    outer_id, inner_id = by_name["cumulants.outer"][0], by_name["cumulants.inner"][0]
    assert by_name["cumulants.outer"][4] is None
    assert by_name["cumulants.inner"][4] == outer_id
    leaf_parents = sorted(s[4] for s in t.spans if s[1] == "partitions.leaf")
    assert leaf_parents == sorted([outer_id, inner_id])
    spans = {s[0]: s for s in t.spans}
    assert spans[outer_id][3] - spans[outer_id][2] == 11


def test_recursion_is_credited_once():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def rec(k):
        clock.advance(1)
        if k:
            rec_w(k - 1)

    rec_w = tracer._wrap(t, rec, "trees.rec")
    rec_w(3)
    assert t.calls["trees.rec"] == 4
    assert t.self_s["trees.rec"] == 4


def test_span_cap_bounds_memory():
    t = tracer.Tracer(span_cap=3)
    f = tracer._wrap(t, lambda: None, "trees.f")
    hot = tracer._wrap(t, lambda: None, "trees.encode")
    for _ in range(10):
        f()
        hot()
    assert len(t.spans) == 3 and t.spans_dropped == 7
    assert t.calls["trees.f"] == t.calls["trees.encode"] == 10


def test_closed_forms_on_known_values():
    assert [workloads.catalan(n) for n in range(1, 8)] == [1, 2, 5, 14, 42, 132, 429]
    assert [tracer.bell(n) for n in range(1, 8)] == [1, 2, 5, 15, 52, 203, 877]
    assert workloads.narayana(3) == [1, 3, 1]
    assert workloads.narayana(4) == [1, 6, 6, 1]
    assert workloads.narayana(5) == [1, 10, 20, 10, 1]
    assert workloads.fmt_poly(workloads.shift_q(workloads.narayana(3))) == (
        "0 + 1*q + 3*q^2 + 1*q^3")
    assert workloads.fmt_poly(workloads.shift_q(workloads.binomial_row(2))) == (
        "0 + 1*q + 2*q^2 + 1*q^3")
    assert workloads.fmt_poly([Fraction(-1, 2)]) == "-1/2"
    assert workloads.fmt_poly([Fraction(0)]) == "0"


def test_partition_counts_match_the_tables():
    from troupes.partitions import first_n_druns_index_blocks, partitions_as_index_blocks

    for n in range(1, 7):
        for klass in ("all", "noncrossing", "interval", "nc_irreducible"):
            assert tracer.partition_count(klass, n) == len(partitions_as_index_blocks(n, klass))
        assert tracer.partition_count("first_max", n) == len(first_n_druns_index_blocks(n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_generation(name):
    make = workloads.WORKLOADS[name].ops
    a, b, c = make(1), make(1), make(2)
    assert [op.argv for op in a] == [op.argv for op in b]
    assert len(a) == len(c)
    assert [op.argv for op in a] != [op.argv for op in c]


def test_failed_checks_count_and_do_not_stop_the_run():
    ops = [
        Op("cli", ("verify", "--troupe", "all", "--n", "3"), workloads.expect_verify(99)),
        Op("cli", ("verify", "--troupe", "nope", "--n", "3"), workloads.expect_verify(3)),
        Op("cli", ("verify", "--troupe", "all", "--n", "3"), workloads.expect_verify(3)),
    ]
    results = run.run_ops(ops)
    assert "PASS over 99" in results[0].error
    assert results[1].error.startswith("exit status 2")
    assert results[2].error is None


SHORT = {
    "verify-deep": lambda seed: workloads.verify_deep_ops(seed, n=5),
    "transform": lambda seed: workloads.transform_ops(seed, order=8, poly_order=6),
    "plot-bijections": lambda seed: workloads.plot_ops(seed, size=7, count=20, lengths=(4, 5)),
}

FLAT = {
    "verify-deep": ["rings.QPoly.mul.calls", "rings.QPoly.add.calls",
                    "rings.QPoly.init.calls", "bijections.self_s", "peaks.self_s"],
    "transform": ["trees.enumerated.branch", "trees.enumerated.bpt",
                  "trees.enumerated.dbpt", "partitions.SetPartition_of.calls",
                  "cumulants.block_products", "cumulants.self_s", "troupe.evaluate.calls",
                  "trees.self_s", "bijections.self_s", "peaks.self_s"],
    "plot-bijections": ["rings.QPoly.mul.calls", "rings.QPoly.add.calls",
                        "rings.QPoly.init.calls", "series.compose.calls", "series.self_s",
                        "cumulants.self_s", "troupe.evaluate.calls",
                        "partitions.table_build.self_s"],
}

BUSY = {
    "verify-deep": ["partitions.SetPartition_of.calls", "trees.enumerated.dbpt",
                    "cumulants.block_products", "troupe.evaluate.calls"],
    "transform": ["series.compose.calls", "rings.QPoly.mul.calls"],
    "plot-bijections": ["bijections.self_s", "peaks.self_s",
                        "trees.labeled_insertion_factors.self_s"],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_traced_run_holds_the_flat_predictions(name):
    metrics, attempted, failed = run.measure_traced(f"test-{name}", SHORT[name](7), 7)
    assert failed == 0 and attempted > 0
    for key in FLAT[name]:
        assert metrics[key][0] == 0, key
    for key in BUSY[name]:
        assert metrics[key][0] > 0, key
    assert metrics["trace.overhead_ratio"][0] > 0
    assert 0 < metrics["trace.covered_ratio"][0] <= 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_ref", "peak_rss_mb", "setup_s"]
    produced, _ = tracer.layer_metrics({}, {}, {}, 0.0, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in produced.items()}


def test_reference_runs_around_every_op():
    ops = [Op("cli", ("verify", "--troupe", "all", "--n", "2"), workloads.expect_verify(2))] * 2
    refs: list[float] = []
    results = run.run_ops(ops, refs=refs)
    assert [r.error for r in results] == [None, None]
    assert len(refs) == len(ops) + 1 and all(w > 0 for w in refs)
