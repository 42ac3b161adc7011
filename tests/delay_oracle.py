"""Per-pair delay pairing and virtual channel, written independently of the
batched kernels in ``statops.traces`` so the tests can check those against it.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from statops.traces import ChannelSeries


def _pair(in_times: list[float], out_times: list[float], horizon: float) -> np.ndarray:
    delays = []
    for t in out_times:
        i = bisect_right(in_times, t)  # inputs at or before t
        if i and t - in_times[i - 1] <= horizon:
            delays.append(t - in_times[i - 1])
    return np.array(delays, dtype=float)


def delay_samples(input: ChannelSeries, output: ChannelSeries, horizon: float) -> np.ndarray:
    """Delays from each output event back to the latest input event at or
    before it, in output order, dropping pairs farther apart than ``horizon``."""
    return _pair(input.times.tolist(), output.times.tolist(), horizon)


def virtual_random_delays(input: ChannelSeries, n_out: int, window: tuple[float, float],
                          horizon: float, rng: np.random.Generator) -> np.ndarray:
    """Delays of ``input`` against ``n_out`` sorted Uniform(window) departures,
    the next ``n_out`` draws of ``rng``."""
    lo, hi = window
    departures = lo + (hi - lo) * np.sort(rng.random(n_out))
    return _pair(input.times.tolist(), departures.tolist(), horizon)
