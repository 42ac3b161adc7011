from __future__ import annotations

import numpy as np
import pytest

from delay_oracle import delay_samples
from statops.stats import kolmogorov_sf, ks_uniform_segments
from statops.traces import (
    ChannelId,
    ChannelSeries,
    ChannelSpec,
    DependencySpec,
    HostTrace,
    SynthSpec,
    TraceFormatError,
    pair_delays,
    parse_ground_truth,
    parse_synth_spec,
    parse_trace,
    serialize_ground_truth,
    serialize_trace,
    null_delay_cdf,
    synth_trace,
)


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------


def test_parse_empty_stream():
    trace = parse_trace("")
    assert trace.host == ""
    assert trace.channels == {}
    assert trace.window == (0.0, 0.0)


def test_parse_groups_by_channel():
    text = (
        "ts=1.0 host=h remote=x service=http dir=in\n"
        "ts=1.2 host=h remote=y service=dns dir=out\n"
    )
    trace = parse_trace(text)
    assert trace.host == "h"
    assert set(trace.channels) == {ChannelId("in", "http", "x"), ChannelId("out", "dns", "y")}
    assert list(trace.channels[ChannelId("in", "http", "x")].times) == [1.0]
    assert list(trace.channels[ChannelId("out", "dns", "y")].times) == [1.2]


def test_parse_rejects_bad_direction_with_line_number():
    text = (
        "ts=1.0 host=h remote=x service=http dir=in\n"
        "ts=2.0 host=h remote=x service=http dir=sideways\n"
    )
    with pytest.raises(TraceFormatError, match="line 2.*sideways"):
        parse_trace(text)


def test_parse_rejects_malformed_fields():
    with pytest.raises(TraceFormatError, match="line 1.*ts"):
        parse_trace("ts=abc host=h remote=x service=http dir=in\n")
    with pytest.raises(TraceFormatError, match="line 1.*expected 5 fields"):
        parse_trace("ts=1.0 host=h remote=x\n")
    with pytest.raises(TraceFormatError, match="line 1"):
        parse_trace("ts=1.0 host=h remote=h service=http dir=in\n")
    with pytest.raises(TraceFormatError, match=r"line 1.*service"):
        parse_trace("ts=1.0 host=h remote=x service= dir=in\n")


def test_parse_rejects_mixed_hosts():
    text = (
        "ts=1.0 host=a remote=x service=http dir=in\n"
        "ts=2.0 host=b remote=x service=http dir=in\n"
    )
    with pytest.raises(TraceFormatError, match="line 2.*'b' differs from 'a'"):
        parse_trace(text)


def test_parse_coalesces_duplicate_timestamps():
    text = (
        "ts=1.0 host=h remote=x service=http dir=in\n"
        "ts=1.0 host=h remote=x service=http dir=in\n"
        "ts=0.5 host=h remote=x service=http dir=in\n"
    )
    trace = parse_trace(text)
    assert list(trace.channels[ChannelId("in", "http", "x")].times) == [0.5, 1.0]


def test_serialize_parse_round_trip():
    rng = np.random.default_rng(0)
    channels = {}
    for cid in [
        ChannelId("in", "http", "web-01"),
        ChannelId("out", "dns", "ns.local"),
        ChannelId("out", "smb", "files_9"),
    ]:
        channels[cid] = ChannelSeries(cid, rng.uniform(0, 100, 37))
    trace = HostTrace(host="desktop", channels=channels)
    assert parse_trace(serialize_trace(trace)) == trace
    # empty round-trips too
    assert parse_trace(serialize_trace(HostTrace("", {}))) == HostTrace("", {})


# ---------------------------------------------------------------------------
# delay pairing
# ---------------------------------------------------------------------------


def _delays(in_times, out_times, horizon):
    return pair_delays(np.sort(in_times), np.asarray(out_times, dtype=float), horizon)[0]


def test_delay_pairing_worked_example():
    delays = _delays([1.0, 5.0], [1.2, 1.4, 5.1], 1.0)
    assert delays == pytest.approx([0.2, 0.4, 0.1])


def test_delay_pairing_no_preceding_input():
    assert _delays([1.0], [0.5], 1.0).size == 0


def test_delay_pairing_exceeds_horizon():
    assert _delays([1.0], [3.0], 1.0).size == 0


def test_delay_pairing_ignores_inputs_after_last_output():
    out = [2.5, 2.7]
    np.testing.assert_array_equal(
        _delays([1.0, 2.0], out, 1.0), _delays([1.0, 2.0, 9.0, 11.0], out, 1.0)
    )


def test_delay_pairing_horizon_nesting_and_bounds():
    rng = np.random.default_rng(3)
    inp = rng.uniform(0, 50, 80)
    out = rng.uniform(0, 50, 60)
    d1 = _delays(inp, out, 0.3)
    d2 = _delays(inp, out, 1.5)
    assert d1.size <= d2.size <= out.size
    # multiset inclusion: every short-horizon delay appears under the long one
    remaining = list(d2)
    for v in d1:
        remaining.remove(v)
    assert np.all(d1 >= 0) and np.all(d1 <= 0.3)


def test_null_delay_cdf_worked_example():
    # gaps 1.0, 4.5 and (to the window's end) 2.5; G(d) = sum min(gap, d)
    f0 = null_delay_cdf(np.array([2.0, 3.0, 7.5]), 10.0, 2.0)
    np.testing.assert_allclose(f0(np.array([0.0, 0.5, 1.5, 2.0])), [0.0, 1.5 / 5, 4.0 / 5, 1.0],
                               rtol=0, atol=1e-15)


def test_null_delay_cdf_none_without_mass():
    # a lone input that ends the window leaves no room for a delay
    assert null_delay_cdf(np.array([10.0]), 10.0, 1.0) is None
    assert null_delay_cdf(np.array([9.0]), 10.0, 1.0) is not None


def test_null_delay_cdf_and_bins_match_uniform_outputs():
    # F0 and the log-odds bins' p_k against many outputs drawn uniformly
    # over the window, paired with the same input
    rng = np.random.default_rng(31)
    inp = np.sort(np.concatenate([rng.uniform(5.0, 45.0, 100), rng.uniform(60.0, 95.0, 50)]))
    horizon, bins = 1.0, 20
    delays = pair_delays(inp, rng.uniform(0.0, 100.0, 400_000), horizon)[0]
    assert delays.size > 150_000
    f0 = null_delay_cdf(inp, 100.0, horizon)
    grid = np.linspace(0.0, horizon, 41)
    observed = np.searchsorted(np.sort(delays), grid, side="right") / delays.size
    assert np.abs(observed - f0(grid)).max() <= 0.005
    edges = np.append(np.arange(bins) * (horizon / bins), horizon)
    p = np.diff(f0(edges))
    frequency = np.bincount(np.minimum((delays / (horizon / bins)).astype(int), bins - 1),
                            minlength=bins) / delays.size
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(frequency - p).max() <= 0.004


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def _null_spec(seed):
    channels = tuple(
        [ChannelSpec(ChannelId("in", "http", f"src{i}"), 2.0) for i in range(3)]
        + [ChannelSpec(ChannelId("out", "dns", f"dst{i}"), 2.0) for i in range(3)]
    )
    return SynthSpec(host="h", duration=60.0, channels=channels, seed=seed)


def test_synth_trace_deterministic():
    t1, g1 = synth_trace(_null_spec(5))
    t2, g2 = synth_trace(_null_spec(5))
    assert serialize_trace(t1) == serialize_trace(t2)
    assert g1 == g2 == frozenset()


def test_synth_trace_zero_duration_is_empty():
    spec = SynthSpec(host="h", duration=0.0,
                     channels=(ChannelSpec(ChannelId("in", "http", "x"), 3.0),), seed=1)
    trace, truth = synth_trace(spec)
    assert trace.channels == {}
    assert truth == frozenset()


def test_synth_trace_independent_pairs_look_null():
    # with no planted dependencies, one-sample KS p-values against the gap
    # null F0 are roughly uniform: the naive 5% rejection rate stays near 5%
    rejections = 0
    total = 0
    for seed in range(10):
        trace, _ = synth_trace(_null_spec(seed))
        ins = [c for c in trace.channels if c.direction == "in"]
        outs = [c for c in trace.channels if c.direction == "out"]
        for cin in sorted(ins):
            f0 = null_delay_cdf(trace.channels[cin].times, trace.window[1], 1.0)
            for cout in sorted(outs):
                delays = delay_samples(trace.channels[cin], trace.channels[cout], 1.0)
                if delays.size < 10:
                    continue
                d = ks_uniform_segments(f0(np.sort(delays)), [delays.size])
                p = kolmogorov_sf(d * np.sqrt(delays.size))[0]
                total += 1
                rejections += p <= 0.05
    assert total >= 60
    assert rejections / total <= 0.15


def test_synth_trace_planted_delays_concentrate():
    in_id = ChannelId("in", "http", "web")
    out_id = ChannelId("out", "sql", "db")
    spec = SynthSpec(
        host="h", duration=200.0,
        channels=(ChannelSpec(in_id, 5.0), ChannelSpec(out_id, 0.5)),
        dependencies=(DependencySpec(in_id, out_id, mean_delay=0.05, response_prob=0.9),),
        seed=11,
    )
    trace, truth = synth_trace(spec)
    assert truth == frozenset({(in_id, out_id)})
    delays = pair_delays(trace.channels[in_id].times, trace.channels[out_id].times, 1.0)[0]
    assert np.mean(delays < 0.2) > 0.8


def test_synth_spec_validation():
    in_id = ChannelId("in", "http", "web")
    out_id = ChannelId("out", "sql", "db")
    with pytest.raises(ValueError, match="rate"):
        synth_trace(SynthSpec("h", 10.0, (ChannelSpec(in_id, 0.0),)))
    with pytest.raises(ValueError, match="undeclared"):
        synth_trace(SynthSpec(
            "h", 10.0, (ChannelSpec(in_id, 1.0),),
            (DependencySpec(in_id, out_id, 0.1, 0.5),),
        ))


# ---------------------------------------------------------------------------
# spec files and ground-truth sidecars
# ---------------------------------------------------------------------------

SPEC_TEXT = """\
# desk-scale example
kind=trace host=desktop duration=120 seed=7
kind=channel dir=in service=http remote=web01 rate=2.0
kind=channel dir=out service=sql remote=db01 rate=0.5
kind=dep in_service=http in_remote=web01 out_service=sql out_remote=db01 mean_delay=0.05 prob=0.9
"""


def test_parse_synth_spec_round_trip_fields():
    spec = parse_synth_spec(SPEC_TEXT)
    assert spec.host == "desktop"
    assert spec.duration == 120.0
    assert spec.seed == 7
    assert len(spec.channels) == 2
    assert spec.dependencies[0].response_prob == 0.9


def test_parse_synth_spec_errors():
    with pytest.raises(TraceFormatError, match="missing kind=trace"):
        parse_synth_spec("kind=channel dir=in service=s remote=r rate=1\n")
    with pytest.raises(TraceFormatError, match="line 2"):
        parse_synth_spec("kind=trace host=h duration=10 seed=0\nkind=bogus a=1\n")


def test_ground_truth_sidecar_round_trip():
    spec = parse_synth_spec(SPEC_TEXT)
    _, truth = synth_trace(spec)
    assert parse_ground_truth(serialize_ground_truth(truth)) == truth
