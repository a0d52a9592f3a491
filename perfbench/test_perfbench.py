"""Tests of the benchmark's own machinery, at tiny sizes."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import mulab  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mulab import phases, symbolic_blocks  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every mulab module and layer class, by identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "mulab" or name.startswith("mulab."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if isinstance(obj, type) and obj.__module__ == name:
                    for meth, raw in vars(obj).items():
                        out[(name, attr, meth)] = raw
    return out


def test_wrappers_restore_the_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.instrumented(tracer):
            wrapped = _bindings()
            changed = [k for k in before if wrapped[k] is not before[k]]
            assert ("mulab.sieves", "sieve_mobius") in changed
            assert ("mulab", "sieve_mobius") in changed
            assert ("mulab.phases", "Phase", "frac_units") in changed
            assert ("mulab.phases", "BracketPhase", "frac_units") in changed
            assert ("mulab.phases", "PolyPhase", "frac_chunk") in changed
            assert ("mulab.phases", "PolyPhase", "frac") not in changed
            mulab.sieves.sieve_mobius(100)
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert tracer.spans[0].name == "sieves.sieve_mobius"
    assert tracer.spans[0].items == 100


def _span(name, layer, parent, dur, items=None):
    sp = tracing.Span(name, layer, parent, items)
    sp.dur = dur
    return sp


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("phase_sums.weighted_average", "phase_sums", -1, 100),
        _span("phases.poly_fixed.frac_chunk", "phases", 0, 30, items=7),
        _span("phases.poly_fixed.frac_chunk", "phases", 0, 50, items=9),
        _span("phases.poly_fixed.frac_units", "phases", 2, 20, items=9),
        _span("sieves.sieve_mobius", "sieves", -1, 10, items=1000),
    ]
    assert tracing.self_times(spans) == [20, 30, 30, 20, 10]
    assert tracing.unattributed(spans, 200) == 90
    m = tracing.pass_metrics(spans, 200, {})
    assert m["phase_sums.weighted_average_self_s"] == pytest.approx(20e-9)
    assert m["phases.numerators_s"] == pytest.approx(80e-9)
    assert m["phases.poly_fixed_s"] == pytest.approx(80e-9)
    assert m["phases.calls"] == 2 and m["phases.terms"] == 16
    assert m["phase_sums.terms"] == 16
    assert m["sieves.sieve_n_per_s"] == pytest.approx(1000 / 10e-9)
    parts = sum(m[k] for k in tracing.SELF_TIME_METRICS)
    assert parts == pytest.approx(m["trace.traced_wall_s"])


def test_iterator_consumption_counts_as_phases_time():
    p1 = phases.parse_phase("poly:0,sqrt2")
    p2 = phases.parse_phase("poly:0,sqrt3")
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        seq, _ = symbolic_blocks.indicator_set(p1, p2, 3 * tracing.ITER_CHUNK)
    names = [sp.name for sp in tracer.spans]
    assert names[0] == "symbolic_blocks.indicator_set"
    iters = [sp for sp in tracer.spans if sp.name == "phases.poly_fixed.frac_units.iter"]
    assert len(iters) == 2 and all(sp.parent == 0 for sp in iters)
    own = tracing.self_times(tracer.spans)
    assert own[0] == tracer.spans[0].dur - sum(sp.dur for sp in tracer.spans[1:])
    assert len(seq) == 3 * tracing.ITER_CHUNK


def test_allocation_peaks_see_numpy_buffers():
    tracer = tracing.Tracer(track_alloc=True)
    with tracing.instrumented(tracer):
        mulab.sieves.sieve_phi(1 << 16)
    (span,) = [sp for sp in tracer.spans if sp.name == "sieves.sieve_phi"]
    assert span.peak >= 8 << 16  # the int64 result alone


def test_a_perturbed_reference_value_fails():
    got = {"count": 7, "rows": [[10, 0.25, -0.5]], "sha": "ab"}
    checks = workloads.Checks()
    workloads.compare(checks, "r", got, json.loads(json.dumps(got)))
    assert checks.attempted == 5 and not checks.failed
    for path, value in (("count", 8), ("sha", "ac")):
        want = dict(got, **{path: value})
        checks = workloads.Checks()
        workloads.compare(checks, "r", got, want)
        assert checks.failed == [f"r.{path}"]
    checks = workloads.Checks()
    workloads.compare(checks, "r", got, dict(got, rows=[[10, 0.25 + 1e-9, -0.5]]))
    assert checks.failed == ["r.rows[0][1]"]
    checks = workloads.Checks()
    workloads.compare(checks, "r", got, dict(got, rows=[[10, 0.25 + 1e-14, -0.5]]))
    assert not checks.failed


def test_reference_file_covers_both_seeds_and_true_mertens_values():
    ref = json.loads((HERE / "reference.json").read_text())["workloads"]
    assert set(ref) == set(workloads.WORKLOADS)
    for entry in ref.values():
        assert set(entry["seeds"]) == {str(workloads.DEFAULT_SEED), "2718"}
    assert ref["mu_scan"]["fixed"]["mertens"][:2] == [[1000, 2], [10000, -23]]


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


class TinyMuScan(workloads.MuScan):
    N, AP_N, AP_H, SI_X, CHECKPOINTS = 30000, 5000, (10, 100, 1000), 2000, 5


class TinyIrrational(workloads.IrrationalBlocks):
    N_POLY, N_POW, N_BRACKET, P, J_MAX, P_LABELS = 3000, 1000, 1000, 3000, 8, 1000


class TinyExact(workloads.ExactOracle):
    STRATA = (("generic", 2, 4, 2), ("generic", 3, 4, 1), ("central", 3, 4, 1),
              ("cylinder", 3, 4, 1))
    CALC = {"diff": 5, "sigma": 5, "lagrange": 5, "reconstruct": 5,
            "equivalence": 20, "extend": 5}


class TinyCombined(workloads.Combined):
    name = "tiny_combined"
    parts = (TinyIrrational, TinyExact)


@pytest.mark.parametrize("cls", [TinyMuScan, TinyIrrational, TinyExact, TinyCombined])
def test_tiny_workloads_pass_their_checks(cls, tmp_path):
    wl = cls(7, tmp_path)
    try:
        out = wl.run()
        checks = workloads.Checks()
        wl.cross_check(out, checks)
        wl.oracle_check(out, checks)
        wl.summarize(out)
    finally:
        wl.close()
    assert checks.attempted > 0 and checks.failed == []
    assert list(tmp_path.iterdir()) == []
