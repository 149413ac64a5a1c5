"""Tests of the speed correction in ``speed.py``.

Run with ``python3 -m pytest perfbench/test_speed.py`` from the repository root.
"""

import time

import pytest

from speed import INTERVAL_S, SpeedMeter


def meter_with(samples):
    m = SpeedMeter()
    for t, ratio in samples:
        m.times.append(t)
        m.ratios.append(ratio)
    return m


def test_factor_averages_the_probes_around_the_stretch():
    m = meter_with([(0.0, 1.0), (1.0, 0.5), (1.5, 0.7), (3.0, 2.0)])
    assert m.factor(1.0, 1.5) == pytest.approx(0.6)
    # one interval of slack on either side
    assert m.factor(1.0 + INTERVAL_S / 2, 1.5 - INTERVAL_S / 2) == pytest.approx(0.6)


def test_factor_falls_back_to_the_nearest_probe():
    m = meter_with([(0.0, 1.0), (1.0, 0.5)])
    assert m.factor(0.3, 0.35) == 1.0
    assert m.factor(0.7, 0.75) == 0.5
    assert m.factor(5.0, 6.0) == 0.5
    assert m.factor(-6.0, -5.0) == 1.0
    with pytest.raises(ValueError):
        SpeedMeter().factor(0.0, 1.0)


def test_meter_samples_while_code_runs_and_counts_its_own_time():
    m = SpeedMeter()
    m.start()
    end = time.perf_counter() + 20 * INTERVAL_S
    while time.perf_counter() < end:
        sum(range(1000))
    m.stop()
    assert len(m.ratios) >= 10
    assert all(r > 0 for r in m.ratios)
    assert 0.0 < m.stolen < 20 * INTERVAL_S
