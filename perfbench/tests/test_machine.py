"""Tests of the machine-speed scaling and of the per-operation medians."""

import machine
import run


def test_factor_is_reference_time_over_the_median_sample_in_the_span():
    meter = machine.Meter(enabled=False)
    meter.samples = [0.040, 0.030, 0.050, 0.010]
    meter.ends = [1.0, 2.0, 3.0, 4.0]
    assert meter.factor() == machine.REFERENCE_S / 0.035
    assert meter.factor(1.5, 3.0) == machine.REFERENCE_S / 0.040


def test_a_disabled_meter_takes_no_samples():
    meter = machine.Meter(enabled=False)
    meter.tick()
    assert meter.samples == []
    assert meter.aside_s == 0.0


def test_a_meter_samples_once_per_cadence_passed():
    meter = machine.Meter()
    meter.tick()
    assert meter.samples == []
    meter._last -= machine.CADENCE_S
    meter.tick()
    meter.tick()
    assert len(meter.samples) == 1
    assert meter.aside_s == meter.samples[0] > 0.0
    meter._last -= 3.5 * machine.CADENCE_S
    meter.tick()
    assert len(meter.samples) == 4
    meter._last -= 100 * machine.CADENCE_S
    meter.tick()
    assert len(meter.samples) == 4 + machine.BURST


def test_each_operation_is_its_median_over_rounds_after_scaling():
    # two operations, three rounds; the second round ran twice as slow and
    # its factor halves it back
    samples = [10.0, 20.0, 20.0, 40.0, 12.0, 18.0]
    assert run.per_operation(samples, 2, [1.0, 0.5, 1.0]) == [10.0, 20.0]
    assert run.per_operation(samples, 2, [1.0, 1.0, 1.0]) == [12.0, 20.0]
