"""Durability and fleet scale: two production concerns the paper touches.

1. **Crash safety** (Sec. 6.5 criticises the GF's volatile buffer): this
   library's maintenance state fits a single superblock -- including the
   full PRNG state -- so a recovered maintainer replays post-checkpoint
   insertions *bit-identically* to a run that never crashed. We simulate
   a crash mid-window and verify the recovered sample matches the control.

2. **Many samples** (Sec. 1: "the overall memory consumption increases
   with the number of samples maintained in-memory"): a fleet of samples
   refreshed with Nomem needs a constant ~2.5 kB per sample regardless of
   sample size, where Array Refresh needs 4 bytes per slot.

Run:  python examples/durability_and_fleets.py
"""

from repro import (
    CostModel,
    IntRecordCodec,
    LogFile,
    NomemRefresh,
    ArrayRefresh,
    RandomSource,
    SampleFile,
    SampleMaintainer,
    SimulatedBlockDevice,
    build_reservoir,
)
from repro.storage.superblock import DualSlotCheckpointStore

M, R0, CRASH_AT, TOTAL, SEED = 500, 1_500, 4_000, 9_000, 77
FLEET_M = 5_000  # per-sample slots in the fleet demo: big enough that
                 # Array's 4-byte-per-slot bill dwarfs a 2.5 kB PRNG state


def build(cost, seed=SEED):
    rng = RandomSource(seed=seed)
    codec = IntRecordCodec()
    sample = SampleFile(SimulatedBlockDevice(cost, "sample"), codec, M)
    initial, seen = build_reservoir(range(R0), M, rng)
    sample.initialize(initial)
    log_device = SimulatedBlockDevice(cost, "log")
    maintainer = SampleMaintainer(
        sample, rng, strategy="candidate", initial_dataset_size=seen,
        log=LogFile(log_device, codec), algorithm=NomemRefresh(),
        cost_model=cost,
    )
    return maintainer, sample, log_device


def crash_recovery_demo() -> None:
    print("== crash recovery ==")
    # Control: never crashes.
    control, control_sample, _ = build(CostModel())
    control.insert_many(range(R0, R0 + TOTAL))
    control.refresh()

    # Crashing run: checkpoint mid-window, then the process "dies".
    cost = CostModel()
    crashing, sample, log_device = build(cost)
    crashing.insert_many(range(R0, R0 + CRASH_AT))
    store = DualSlotCheckpointStore(SimulatedBlockDevice(cost, "superblock"))
    store.save(crashing.checkpoint_state())
    print(f"checkpoint at insert {CRASH_AT}: "
          f"log holds {crashing.pending_log_elements} candidates, "
          f"superblock = 1 block")
    del crashing  # crash: only device contents survive

    # Recovery: reattach to the surviving devices, replay the tail.
    recovered = SampleMaintainer.from_checkpoint(
        store.load(), sample,
        log=LogFile(log_device, IntRecordCodec()),
        algorithm=NomemRefresh(), cost_model=cost,
    )
    recovered.insert_many(range(R0 + CRASH_AT, R0 + TOTAL))
    recovered.refresh()

    identical = sample.peek_all() == control_sample.peek_all()
    print(f"recovered sample identical to uninterrupted run: {identical}")
    assert identical


def fleet_demo() -> None:
    print()
    print("== fleet refresh memory ==")
    for name, factory in (("array", ArrayRefresh), ("nomem", NomemRefresh)):
        # A fleet is a list of maintainers charging one shared cost model.
        cost = CostModel()
        fleet = []
        root = RandomSource(seed=SEED)
        for idx in range(10):
            rng = root.spawn(f"s{idx}")
            codec = IntRecordCodec()
            sample = SampleFile(
                SimulatedBlockDevice(cost, f"sample-{idx}"), codec, FLEET_M
            )
            initial, seen = build_reservoir(range(FLEET_M * 2), FLEET_M, rng)
            sample.initialize(initial)
            fleet.append(SampleMaintainer(
                sample, rng, strategy="candidate", initial_dataset_size=seen,
                log=LogFile(SimulatedBlockDevice(cost, f"log-{idx}"), codec),
                algorithm=factory(), cost_model=cost,
            ))
        for maintainer in fleet:
            maintainer.insert_many(range(FLEET_M * 2, FLEET_M * 2 + 10_000))
        results = [maintainer.refresh() for maintainer in fleet]
        # Summing the per-sample peaks is the bill for refreshing the
        # samples concurrently (each sample needs its own buffer, Sec. 2).
        peak = sum(r.memory.peak_bytes for r in results)
        displaced = sum(r.displaced for r in results)
        print(f"  10 samples x {FLEET_M} slots, {name:>5} refresh: "
              f"{peak:>7} bytes aggregate "
              f"({displaced} elements displaced)")


if __name__ == "__main__":
    crash_recovery_demo()
    fleet_demo()
