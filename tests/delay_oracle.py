"""Per-pair delay pairing, written independently of the batched kernel in
``statops.traces`` so the tests can check it against this.
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
