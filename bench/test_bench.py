"""Tests for the benchmark's own helpers (not for modint itself)."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import modint  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402


class TestPercentiles:
    @pytest.mark.parametrize(
        "n, expected",
        [(8, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
    )
    def test_tail_has_ten_samples_beyond(self, n, expected):
        assert summary.tail_percentile(n) == expected

    def test_quartiles_and_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, med, q3 = summary.quartiles(values)
        assert med == 3.0
        assert summary.spread(values) == pytest.approx((q3 - q1) / 3.0)


class TestCompare:
    def test_gain_needs_nine_tenths_of_pairs(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        change = [v * 0.8 for v in parent]
        assert summary.compare(parent, change, "lower", 0.1)["status"] == "gain"
        assert summary.compare(parent, change, "higher", 0.1)["status"] == "regressed"

    def test_wide_spread_is_unresolved(self):
        parent = [1.0, 2.0, 1.0, 2.0, 1.5]
        change = [2.0, 1.0, 1.5, 1.0, 2.0]
        assert summary.compare(parent, change, "lower", 0.1)["status"] == "unresolved"

    def test_same_runs_are_within_bound(self):
        parent = [5.0, 5.1, 4.9, 5.0]
        assert summary.compare(parent, list(parent), "lower", 0.1)["status"] == "within bound"


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans_ = [
            ("op", 0.0, 10.0, None, 0),
            ("a", 1.0, 4.0, 0, 0),
            ("b", 3.0, 6.0, 0, 0),  # overlaps a: the parent loses 5 s, not 6
            ("c", 1.5, 2.5, 1, 0),
            ("a", 7.0, 8.0, 0, 0),
        ]
        st = spans.self_times(spans_)
        assert st["op"] == pytest.approx(10.0 - 5.0 - 1.0)
        assert st["a"] == pytest.approx(3.0 - 1.0 + 1.0)
        assert st["b"] == pytest.approx(3.0)
        assert st["c"] == pytest.approx(1.0)

    def test_tracer_records_parent_and_op(self):
        ticks = iter(range(100))
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap(lambda: None, "inner")
        outer = tracer.wrap(lambda: inner(), "outer")
        tracer.op = 7
        outer()
        assert tracer.spans == [("outer", 0.0, 3.0, None, 7), ("inner", 1.0, 2.0, 0, 7)]
        assert tracer.summary()["self_s"] == {"outer": 2.0, "inner": 1.0}


class TestReferences:
    def test_squeezing_closed_forms(self):
        assert workloads.s1_closed(1) == 0.0 and workloads.s2_closed(1) == 0.0
        assert workloads.s1_closed(2) == pytest.approx(6 / math.pi**2)
        assert workloads.s2_closed(2) == pytest.approx(3 / math.pi**2)
        assert workloads.s1_closed(2000) == pytest.approx(1.0, abs=5e-3)
        assert workloads.s2_closed(2000) == pytest.approx(1.0, abs=5e-3)
        for n in (*range(1, 12), 100):  # agrees with modint's own implementation
            assert workloads.s1_closed(n) == pytest.approx(modint.squeezing_s1(n), abs=1e-14)
            assert workloads.s2_closed(n) == pytest.approx(modint.squeezing_s2(n), abs=1e-14)

    def test_lhs_meets_the_bound_at_the_threshold(self):
        two_c = 2 * modint.solve_c().c
        for n in (2, 3, 10):
            eps = modint.robustness_threshold(n)
            assert workloads.lhs_closed(n, eps) == pytest.approx(two_c, abs=1e-12)
        assert workloads.lhs_closed(2) == pytest.approx((1 - 3 / math.pi**2) / 6)


def _bindings():
    """Every (owner, attribute, object) that the tracer may replace."""
    mods = [m for k, m in sys.modules.items() if k == "modint" or k.startswith("modint.")]
    out = [(m, k, v) for m in mods for k, v in vars(m).items() if callable(v)]
    out += [(modint.WavePacket, k, modint.WavePacket.__dict__[k])
            for k in ("position_amplitude", "momentum_amplitude")]
    out += [(np.fft, k, getattr(np.fft, k)) for k in ("fft", "ifft")]
    return out


class TestTracerInstall:
    def test_wrappers_are_removed_after_a_traced_run(self):
        before = _bindings()
        state = modint.build_mpe(2, 0.0, 1, 1.0, modint.GaussianEnvelope(8.0))
        with spans.Tracer() as tracer:
            spans.install_modint(tracer)
            assert modint.sampling.joint_position_density.__wrapped_by_tracer__
            assert np.fft.fft.__wrapped_by_tracer__
            modint.evaluate_criterion(state, modint.ModularScale(1.0))
            modint.sample_measurements(state, "position", 500, seed=3)
        for owner, attr, obj in before:
            assert getattr(owner, attr) is obj, f"{owner.__name__}.{attr} still wrapped"
        names = {s[0] for s in tracer.spans}
        assert {"criterion.evaluate_criterion", "states.discretize", "grids.observable_stats",
                "sampling.sample_measurements", "states.joint_density", "modvar.split"} <= names
        c = tracer.counters
        assert c["grids.fft_calls"] > 0 and c["sampling.records"] == 500
        assert c["sampling.proposals"] >= 500

    def test_wrappers_are_removed_when_the_run_raises(self):
        original = modint.states.discretize
        with pytest.raises(ZeroDivisionError):
            with spans.Tracer() as tracer:
                spans.install_modint(tracer)
                assert modint.states.discretize is not original
                raise ZeroDivisionError
        assert modint.states.discretize is original


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
