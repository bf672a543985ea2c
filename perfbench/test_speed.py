"""Tests of the speed correction.

    python3 -m pytest -q perfbench
"""

import time

import pytest

import speed


def probe_with(samples):
    probe = speed.SpeedProbe()
    for at, took in samples:
        probe.at.append(at)
        probe.took.append(took)
    return probe


def test_seconds_remove_the_samples_and_scale_by_their_speed():
    # 1 s holding ten samples of 2 ms each: 0.98 s of program work at a
    # speed where the kernel takes 2 ms, i.e. 490 kernels' worth
    probe = probe_with([(0.05 + 0.1 * k, 0.002) for k in range(10)])
    assert probe.seconds(0.0, 1.0) == pytest.approx(490.0 * speed.KERNEL_S)
    # the same work at twice the speed reads the same
    fast = probe_with([(0.05 + 0.1 * k, 0.001) for k in range(5)])
    assert fast.seconds(0.0, 0.495) == pytest.approx(490.0 * speed.KERNEL_S)


def test_seconds_use_only_the_samples_inside_the_interval():
    probe = probe_with([(0.5, 0.004), (1.5, 0.001), (2.5, 0.004)])
    assert probe.seconds(1.0, 2.0) == pytest.approx(0.999 / 0.001 * speed.KERNEL_S)


def test_seconds_need_a_sample():
    with pytest.raises(RuntimeError):
        probe_with([]).seconds(0.0, 1.0)


def test_probe_samples_while_the_program_runs():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        start = speed.clock()
        while speed.clock() - start < 0.3:
            sum(range(1000))
        end = speed.clock()
    finally:
        probe.stop()
    assert len(probe.took) >= 10
    # below the wall time unless the kernel ran faster than on the reference host
    work = probe.seconds(start, end) * min(probe.took) / speed.KERNEL_S
    assert 0.0 < work <= end - start
    taken = len(probe.took)
    time.sleep(0.05)  # the timer is off: no further samples
    assert len(probe.took) == len(probe.at) == taken
