"""The Clock's scaling and its removal of reference time from samples.

    python3 -m pytest perfbench/tests -q
"""
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import calibration  # noqa: E402

sys.path.pop(0)


def test_reference_inside_a_sample_is_taken_out_and_samples_are_scaled():
    clock = calibration.Clock()

    def work():
        time.sleep(calibration.INTERVAL)
        clock.tick()  # due: runs the reference inside the sample

    sample, _ = clock.timed(work)
    assert len(clock.durations) == 2  # one before the sample, one inside
    assert sample.seconds == pytest.approx(sample.end - sample.start - clock.durations[1])
    mean = sum(clock.durations) / 2
    assert clock.seconds([sample]) == pytest.approx([sample.seconds * calibration.REF_S / mean])


def test_without_reference_times_are_plain():
    clock = calibration.Clock(reference=False)
    sample, value = clock.timed(lambda: 7)
    assert value == 7 and clock.durations == []
    assert clock.seconds([sample]) == [sample.end - sample.start]
    assert clock.slowdown() == 1.0
