"""Unit tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


@pytest.mark.parametrize("name", ["ed-collapse", "quench-fresh", "quench-scan"])
def test_generators_are_deterministic_in_the_seed(name, tmp_path):
    cls = W.WORKLOADS[name]
    n = 3 * {"quench-scan": W.SCAN_CYCLE_LEN}.get(name, 8)
    first = [cls(7, tmp_path).request(k) for k in range(n)]
    again = [cls(7, tmp_path).request(k) for k in range(n)]
    other = [cls(8, tmp_path).request(k) for k in range(n)]
    assert first == again
    assert first != other
    # the cost-setting properties follow the cycle, whatever the seed
    assert [r["kind"] for r in first] == [r["kind"] for r in other]


def test_quench_fresh_never_repeats_and_keeps_the_decay_floor(tmp_path):
    wl = W.QuenchFresh(3, tmp_path)
    reqs = [wl.request(k) for k in range(64)]
    assert len({(r["h_i"], r["h_f"]) for r in reqs}) == len(reqs)
    phases = {(r["h_i"] > 1.0, r["h_f"] > 1.0) for r in reqs}
    assert phases == {(True, True), (True, False), (False, True), (False, False)}
    for r in reqs:
        e2 = W.mode_integral_e2(r["h_i"], r["h_f"], r["J"], r["k_grid"])
        assert e2 * min(r["L"]) * r["t"] ** 2 >= W.QF_DECAY_MIN
        lo, hi = W.QF_T_RANGE
        assert lo <= r["t"] <= hi


def test_self_time_subtracts_the_union_of_child_intervals():
    tr = tracing.Tracer()
    spans = []
    for sid, (name, parent, start, end) in enumerate([
            ("cli.main", None, 0.0, 10.0),
            ("overlap.table", 0, 1.0, 4.0),      # two overlapping children,
            ("overlap.table", 0, 3.0, 6.0),      # as with --threads 2
            ("special.erf_inv", 1, 2.0, 2.5)]):
        sp = tracing._Span()
        sp.sid, sp.name, sp.parent, sp.request = sid, name, parent, 0
        sp.start, sp.end, sp.cpu0, sp.cpu1 = start, end, None, None
        spans.append(sp)
    tr.spans = spans
    selfs, calls = tr.self_times()
    assert selfs["cli.main"] == pytest.approx(5.0)
    assert selfs["overlap.table"] == pytest.approx(2.5 + 3.0)
    assert calls["overlap.table"] == 2


def test_tracer_restores_every_wrapped_function():
    from qspan import asymptotics, ed, overlap, special
    before = {mod: dict(mod.__dict__) for mod in (asymptotics, ed, overlap,
                                                  special)}
    tr = tracing.Tracer()
    tr.install()
    assert ed.averaged_state is not before[ed]["averaged_state"]
    cs = asymptotics.CumulantSeries(e=(0.0, 1.0), L=100)
    asymptotics.weighted_rank_system(cs, asymptotics.ramp_weight(0.3), 0.1)
    tr.uninstall()
    for mod, saved in before.items():
        for name, obj in saved.items():
            assert mod.__dict__[name] is obj, name
    m = tr.metrics(1.0, 0)
    assert [k for k in m] == [name for name, _ in tracing.PER_LAYER]
    assert m["asymptotics.weighted_rank_system.calls"]["value"] == 1
    assert m["special.adaptive_simpson.integrand_evals"]["value"] > 0
    assert m["special.erf.calls"]["value"] > 0


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "throughput_rps", "latency_p50_s", "latency_tail_s",
        "peak_rss_mb"}


def test_percentile_is_nearest_rank():
    vals = list(range(1, 101))
    assert run.percentile(vals, 50) == 50
    assert run.percentile(vals, 95) == 95
    assert run.percentile(vals, 100) == 100
    assert run.percentile([3.0], 95) == 3.0


def _done(latencies):
    """(request, output, error, start, latency) records, back to back."""
    out, start = [], 0.0
    for k, lat in enumerate(latencies):
        out.append(({"k": k}, None, None, start, lat))
        start += lat
    return out


def test_rate_and_latencies_count_correct_requests_only():
    done = _done([1.0, 3.0, 0.5, 3.5])
    ok = [None] * len(done)
    # whole cycles: correct requests over the wall time
    assert run.rate(done, ok, 2) == pytest.approx(4 / 8.0)
    reasons = [None, None, "fast failure", None]
    assert run.rate(done, reasons, 2) == pytest.approx(3 / 8.0)
    assert run.correct_latencies(done, reasons) == [1.0, 3.0, 3.5]
    assert run.correct_latencies(done[2:3], ["x"]) == [0.5]


def test_rate_does_not_depend_on_where_the_loop_stops():
    # a cheap and a slow position; stopping after the cheap one would read
    # 3 / 11 requests per second as a plain count over wall time
    done = _done([1.0, 9.0, 1.0])
    assert run.rate(done, [None] * 3, 2) == pytest.approx(2 / 10.0)


def test_traced_runs_cover_a_fixed_number_of_whole_periods(tmp_path):
    wl = W.QuenchScan(1, tmp_path)
    assert run.trace_periods(wl, 30) == round(15 / wl.period_s)
    assert run.trace_periods(wl, 1) == 1


def test_accuracy_error_is_counted_once_through_nested_spans():
    from qspan import overlap
    from qspan.errors import AccuracyError
    f = overlap.DynamicalFreeEnergy.from_ising(
        overlap.IsingQuench(h_i=math.inf, h_f=1.5, k_grid=64))
    tr = tracing.Tracer()
    tr.install()
    try:
        with pytest.raises(AccuracyError):
            # renyi_quadrature -> moments_quadrature, both wrapped
            overlap.renyi_quadrature(f, 20, 1, 0.2, 2, scheme="grid",
                                     rtol=1e-30)
    finally:
        tr.uninstall()
    assert tr.counts["overlap.accuracy_errors"] == 1


def test_compare_verdicts():
    parent = [10.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(parent, [x * 0.5 for x in parent], "lower", 0.1) \
        == "improved"
    assert compare.verdict(parent, [x * 1.3 for x in parent], "lower", 0.1) \
        == "regressed"
    assert compare.verdict(parent, list(parent), "lower", 0.1) == "unchanged"
    noisy = [10.0, 20.0] * 5
    assert compare.verdict(noisy, list(noisy), "lower", 0.1) == "unresolved"
    assert compare.verdict(parent[:5], parent[:5], "lower", 0.1) == "unresolved"
    assert not math.isnan(compare.quartiles(parent)[1])
    # a gain with more failed requests than the parent does not count
    assert compare.verdict(parent, [x * 0.5 for x in parent], "lower", 0.1,
                           more_failures=True) == "regressed"
