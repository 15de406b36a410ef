"""Fault-injection telemetry: the structured ``device.crash_injected`` event.

A dead process keeps failing every write with the same armed budget, so
the event must latch: exactly one event (and one ``device.crashes``
count) per armed crash, re-armed triggers reporting again.
"""

import pytest

from repro.obs import Instrumentation
from repro.storage.block_device import SimulatedBlockDevice
from repro.storage.cost_model import CostModel
from repro.storage.fault_injection import (
    CrashBudget,
    FaultInjectionDevice,
    InjectedCrash,
)

BLOCK = b"\x00" * 4096


def make_device(instr, writes_until_crash=None):
    inner = SimulatedBlockDevice(CostModel(), "victim-disk")
    return FaultInjectionDevice(
        inner, writes_until_crash=writes_until_crash, instrumentation=instr
    )


def test_crash_event_fires_exactly_once_per_armed_crash():
    instr = Instrumentation()
    events = []
    instr.events.subscribe(events.append)
    device = make_device(instr, writes_until_crash=2)

    device.write_block(0, BLOCK, sequential=True)
    device.write_block(1, BLOCK, sequential=True)
    assert events == []  # surviving writes are not events

    # The dead process retries: every attempt raises, only the first reports.
    for attempt in range(3):
        with pytest.raises(InjectedCrash):
            device.write_block(2 + attempt, BLOCK, sequential=True)
    crash_events = [e for e in events if e.name == "device.crash_injected"]
    assert len(crash_events) == 1
    event = crash_events[0]
    assert event.attrs["device"] == "victim-disk"
    assert event.attrs["block_index"] == 2
    assert event.attrs["writes_survived"] == 2
    assert instr.counter("device.crashes", {"device": "victim-disk"}).value == 1


def test_rearm_reports_a_second_crash():
    instr = Instrumentation()
    events = []
    instr.events.subscribe(events.append)
    device = make_device(instr, writes_until_crash=0)

    with pytest.raises(InjectedCrash):
        device.write_block(0, BLOCK, sequential=True)
    device.arm(1)
    device.write_block(0, BLOCK, sequential=True)
    with pytest.raises(InjectedCrash):
        device.write_block(1, BLOCK, sequential=True)

    crash_events = [e for e in events if e.name == "device.crash_injected"]
    assert len(crash_events) == 2
    assert crash_events[1].attrs["block_index"] == 1
    assert crash_events[1].attrs["writes_survived"] == 1
    assert instr.counter("device.crashes", {"device": "victim-disk"}).value == 2


def test_disarm_resets_the_latch_without_counting():
    instr = Instrumentation()
    device = make_device(instr, writes_until_crash=0)
    with pytest.raises(InjectedCrash):
        device.write_block(0, BLOCK, sequential=True)
    device.disarm()
    device.write_block(0, BLOCK, sequential=True)  # pass-through again
    assert instr.counter("device.crashes", {"device": "victim-disk"}).value == 1


def test_uninstrumented_device_crashes_silently():
    device = make_device(None, writes_until_crash=0)
    with pytest.raises(InjectedCrash):
        device.write_block(0, BLOCK, sequential=True)


def test_arming_a_device_arms_its_shared_budget():
    """Arming one of two devices that share a crash budget arms the budget:
    the Nth write overall raises, whichever device it lands on."""
    budget = CrashBudget()
    first, second = (
        FaultInjectionDevice(
            SimulatedBlockDevice(CostModel(), name), crash_budget=budget
        )
        for name in ("sample-disk", "log-disk")
    )
    first.arm(writes_until_crash=2)
    assert budget.armed
    first.write_block(0, BLOCK, sequential=True)
    second.write_block(0, BLOCK, sequential=True)
    with pytest.raises(InjectedCrash):
        second.write_block(1, BLOCK, sequential=True)
    with pytest.raises(InjectedCrash):
        first.write_block(1, BLOCK, sequential=True)
    assert budget.writes_seen == 2
    second.disarm()
    assert not budget.armed
    first.write_block(1, BLOCK, sequential=True)
